"""Balanced configurations, the radius trichotomy and rotation sweeps."""

import cmath
import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from hypercom import (
    MassedSystem,
    NumericalError,
    TwoBodyEquilibrium,
    ValidationError,
    arclength_from_pole,
    balance_radius,
    classify_balance,
    com_line,
    diametric_system,
    com_disk,
    eulerian_triple,
    lagrangian_triple,
    line_system,
    mirror_pair,
    rotation_sweep,
    uniform_angles,
    unproject,
)

from hypercom.equilibria import MAX_SWEEP_ANGLES
from oracles import balance_radius_bisection, com_disk_highprec, com_line_bisection

PARTNER_12 = 0.2679491924311227  # 2 - sqrt(3), frozen from the bisection oracle


def test_balance_radius_equal_masses():
    for alpha in (0.05, 0.3, 0.5, 0.9):
        r = balance_radius(1.0, 1.0, alpha, 1.0)
        assert r == pytest.approx(alpha, rel=1e-12)


def test_balance_radius_frozen_example():
    r = balance_radius(1.0, 2.0, 0.5, 1.0)
    assert r == pytest.approx(2.0 - math.sqrt(3.0), rel=1e-14)
    assert r == pytest.approx(balance_radius_bisection(1.0, 2.0, 0.5, 1.0), abs=1e-14)


def test_balance_radius_matches_bisection_oracle():
    rng = np.random.default_rng(41)
    for _ in range(50):
        m1, m2 = rng.uniform(0.2, 5.0, 2)
        radius = float(rng.choice((0.5, 1.0, 10.0)))
        alpha = float(rng.uniform(0.05, 0.9)) * radius
        if (m1 / (2.0 * m2)) * math.log((radius + alpha) / (radius - alpha)) > 5.5:
            continue
        r = balance_radius(m1, m2, alpha, radius)
        oracle = balance_radius_bisection(m1, m2, alpha, radius)
        assert r == pytest.approx(oracle, rel=1e-12)
        if m2 > m1:
            assert r < alpha
        elif m1 > m2:
            assert r > alpha


@pytest.mark.parametrize(
    "m1, m2, alpha, radius",
    [
        (1e308, 1e308, 0.9, 1.0),  # m1 v overflowed: "rounds onto the disk boundary"
        (1.5e308, 1e308, 0.3, 1.0),  # 2 m2 overflowed: r read 0
        (5e-324, 5e-324, 0.5, 1.0),  # subnormal sides: 0.462
        (1e-320, 3e-320, 0.4, 1.0),  # off by 4e-5, certified
        (3e-320, 1e-320, 0.2, 1.0),  # off by 5e-6, certified
    ],
)
def test_balance_radius_over_the_whole_mass_range(m1, m2, alpha, radius):
    # The lever sides are formed on masses scaled by one power of two.
    r = balance_radius(m1, m2, alpha, radius)
    assert r == pytest.approx(balance_radius_bisection(m1, m2, alpha, radius), rel=1e-12)
    verdict = classify_balance(m1, m2, alpha, radius)
    assert verdict.partner_radius == r and verdict.matches_mass_order
    TwoBodyEquilibrium(m1, m2, alpha, r, radius)


def test_balance_radius_where_a_side_underflows():
    # The partners sit about 1e-101 R from the pole.  Here m v underflowed
    # to 0, so r read 0 and the certificate 0 = 0 held.
    assert balance_radius(1e-310, 1e-310, 0.3, 1e100) == pytest.approx(0.3, rel=1e-12)
    expected = balance_radius_bisection(1e-310, 3e-310, 0.3, 1e100)
    assert balance_radius(1e-310, 3e-310, 0.3, 1e100) == pytest.approx(expected, rel=1e-12)
    # A balancing radius of about 3e-632 R underflows to 0: no certificate.
    with pytest.raises(NumericalError, match="cannot reproduce"):
        balance_radius(5e-324, 1e308, 0.5, 1.0)


def test_balance_radius_where_every_side_underflows():
    # alpha / R rounds v(alpha) to 0, so both lever sides read 0 at r = 0.
    with pytest.raises(NumericalError, match="cannot reproduce"):
        balance_radius(1.0, 1.0, 5e-324, 3.0)


@pytest.mark.parametrize("mass, alpha, partner", [(1e308, 0.9, 0.5), (5e-324, 0.5, 0.4)])
def test_two_body_equilibrium_rejects_extreme_masses_off_balance(mass, alpha, partner):
    # Both were accepted: the sides overflowed to inf, or rounded to one subnormal.
    with pytest.raises(ValidationError, match="lever balance"):
        TwoBodyEquilibrium(mass, mass, alpha, partner, 1.0)


@pytest.mark.parametrize(
    "mass, alpha, partner, radius",
    [(1e-300, 0.3, 0.9, 1e100), (1e-10, 1e-320, 2e-320, 1.0)],
)
def test_two_body_equilibrium_rejects_sides_that_underflow(mass, alpha, partner, radius):
    # Ordinary masses, but v = 2 atanh(u / R) is tiny, so both products
    # m v underflowed to 0 and any partner was accepted.
    with pytest.raises(ValidationError, match="lever balance"):
        TwoBodyEquilibrium(mass, mass, alpha, partner, radius)
    r = balance_radius(mass, mass, alpha, radius)
    assert r == alpha
    TwoBodyEquilibrium(mass, mass, alpha, r, radius)


def test_balance_radius_boundary_failure():
    # Mass ratio 1000 at alpha = 0.9 pushes r into the rejected rim band.
    with pytest.raises(NumericalError):
        balance_radius(100.0, 0.1, 0.9, 1.0)


def test_balance_radius_validation():
    with pytest.raises(ValidationError):
        balance_radius(1.0, 1.0, -0.2, 1.0)
    with pytest.raises(ValidationError):
        balance_radius(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        balance_radius(0.0, 1.0, 0.3, 1.0)


def test_classify_balance_cases():
    greater = classify_balance(2.0, 1.0, 0.3, 1.0)
    assert greater.relation == "greater" and greater.matches_mass_order

    equal = classify_balance(1.0, 1.0, 0.3, 1.0)
    assert equal.relation == "equal" and equal.matches_mass_order

    less = classify_balance(1.0, 3.0, 0.6, 1.0)
    assert less.relation == "less" and less.matches_mass_order


def test_trichotomy_random():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 200:
        m1, m2 = rng.uniform(0.2, 5.0, 2)
        radius = float(rng.choice((0.5, 1.0, 10.0)))
        alpha = float(rng.uniform(0.05, 0.9)) * radius
        if (m1 / (2.0 * m2)) * math.log((radius + alpha) / (radius - alpha)) > 5.5:
            continue
        verdict = classify_balance(m1, m2, alpha, radius)
        assert verdict.matches_mass_order
        checked += 1


def test_two_body_equilibrium_invariant():
    pair = TwoBodyEquilibrium(1.0, 2.0, 0.5, balance_radius(1.0, 2.0, 0.5, 1.0), 1.0)
    assert pair.partner_radius == pytest.approx(PARTNER_12, rel=1e-14)
    with pytest.raises(ValidationError):
        TwoBodyEquilibrium(m1=1.0, m2=2.0, alpha=0.5, partner_radius=0.3, radius=1.0)


@pytest.mark.parametrize("number", [int, np.float64])
def test_two_body_equilibrium_keeps_the_checked_floats(number):
    # The fields kept the caller's ints, as a system kept its radius.
    r = balance_radius(1.0, 2.0, 0.5, 1.0)
    pair = TwoBodyEquilibrium(number(1), number(2), np.float64(0.5), r, number(1))
    assert pair == TwoBodyEquilibrium(1.0, 2.0, 0.5, r, 1.0)
    fields = (pair.m1, pair.m2, pair.alpha, pair.partner_radius, pair.radius)
    assert [type(v) for v in fields] == [float] * 5


@pytest.mark.parametrize("outside", [2.0, 1.0, math.nan, math.inf])
def test_two_body_equilibrium_rejects_radii_off_the_interval(outside):
    # (1, 1, 2, 2, 1) ended in "ValueError: math domain error", and
    # (1, 1, nan, nan, 1) was accepted as a certified balance.
    with pytest.raises(ValidationError, match="not inside the interval"):
        TwoBodyEquilibrium(m1=1.0, m2=1.0, alpha=outside, partner_radius=outside, radius=1.0)


def test_diametric_system_balances():
    system = diametric_system(1.0, 2.0, 0.5, 1.0)
    assert system.particles[0].position == 0.5 + 0j
    assert system.particles[1].position.real == pytest.approx(
        -PARTNER_12, rel=1e-14
    )
    assert system.particles[1].position.imag == 0.0
    com = com_disk(system)
    assert abs(com.center) <= 1e-12
    s1 = arclength_from_pole(0.5, 1.0)
    s2 = arclength_from_pole(PARTNER_12, 1.0)
    assert abs(1.0 * s1 - 2.0 * s2) <= 1e-10


def _raises_alike(expected, got, *args):
    """got(*args) raises the same error type and message as expected(*args)."""
    with pytest.raises(Exception) as first:
        expected(*args)
    with pytest.raises(type(first.value)) as second:
        got(*args)
    assert str(second.value) == str(first.value)


@pytest.mark.parametrize("index, bad", [
    (0, 0.0), (0, -1.0), (0, math.nan), (0, "x"), (0, None),
    (1, 0.0), (1, math.inf), (1, "x"),
    (2, 0.0), (2, -0.5), (2, 1.0), (2, math.nan), (2, "x"),
    (3, 0.0), (3, 0.4), (3, math.inf), (3, 1e101), (3, "x"),
])
def test_diametric_system_raises_as_balance_radius(index, bad):
    args = [1.0, 2.0, 0.5, 1.0]
    args[index] = bad
    _raises_alike(balance_radius, diametric_system, *args)


def test_diametric_system_raises_as_balance_radius_past_the_doubles():
    _raises_alike(balance_radius, diametric_system, 1e-320, 1e300, 0.9, 1.0)


@pytest.mark.parametrize("index, bad", [
    (0, (1.0, 2.0)), (0, (1.0, 0.0, 1.0)), (0, (1.0, math.nan, 1.0)), (0, (1.0, "x", 1.0)),
    (1, (-0.3, 0.1)), (1, (-0.3, 1.0, 0.5)), (1, (-0.3, math.nan, 0.5)), (1, (None, 0.1, 0.5)),
    (2, 0.0), (2, 0.4), (2, math.nan), (2, "x"),
])
def test_eulerian_triple_raises_as_line_system(index, bad):
    args = [(1.0, 2.0, 1.0), (-0.3, 0.1, 0.5), 1.0]
    args[index] = bad
    _raises_alike(line_system, eulerian_triple, *args)


def test_diametric_system_equal_masses():
    system = diametric_system(1.0, 1.0, 0.5, 1.0)
    assert system.particles[0].position == 0.5 + 0j
    assert system.particles[1].position.real == pytest.approx(-0.5, rel=1e-14)
    assert abs(com_disk(system).center) <= 1e-14


# --- rotation sweeps ------------------------------------------------------------


def test_sweep_equal_mass_pair_center_stays_at_origin():
    sweep = rotation_sweep(diametric_system(1.0, 1.0, 0.5, 1.0))
    assert len(sweep.samples) == 64
    assert sweep.max_center_abs <= 1e-12
    assert sweep.max_defect <= 1e-12


def test_sweep_single_particle_defect_is_zero():
    from hypercom import disk_system

    sweep = rotation_sweep(disk_system([2.0], [0.3 + 0.4j], 1.0))
    assert sweep.max_defect == 0.0


def test_sweep_unequal_pair_defect_matches_highprec():
    system = diametric_system(1.0, 2.0, 0.5, 1.0)
    sweep = rotation_sweep(system)
    quarter = sweep.samples[16]
    assert quarter.angle == pytest.approx(math.pi / 2.0, rel=1e-15)

    # Fully independent pipeline: partner radius by 30-digit bisection,
    # rotation and averaging in 30-digit arithmetic.
    r_mp = balance_radius_bisection(1.0, 2.0, 0.5, 1.0, dps=30)
    with mp.workdps(30):
        phase = mp.exp(mp.mpc(0.0, quarter.angle))
        oracle = com_disk_highprec(
            [1.0, 2.0],
            [complex(0.5 * phase), complex(-r_mp * phase)],
            1.0,
        )
    assert abs(quarter.com.center - oracle) <= 1e-10
    # The defect is genuinely nonzero for unequal masses.
    assert sweep.max_defect > 1e-3
    assert sweep.max_defect == max(s.defect for s in sweep.samples)


def test_sweep_base_at_zero_angle_has_no_defect():
    system = diametric_system(1.0, 2.0, 0.5, 1.0)
    sweep = rotation_sweep(system, 2)
    assert sweep.samples[0].defect == 0.0


def test_sweep_rejects_empty_angle_list():
    system = diametric_system(1.0, 2.0, 0.5, 1.0)
    for count in (0, -1):
        with pytest.raises(ValidationError, match="at least one angle"):
            rotation_sweep(system, count)


@pytest.mark.parametrize("count", [2.5, "4", 0, None])
def test_sweep_and_grid_take_an_integer_count_of_at_least_one(count):
    # 2.5 and "4" raised a raw TypeError, "4" only after the base center
    # was computed, and uniform_angles(0) returned an empty grid.
    system = diametric_system(1.0, 2.0, 0.5, 1.0)
    with pytest.raises(ValidationError, match="at least one angle"):
        uniform_angles(count)
    with pytest.raises(ValidationError, match="at least one angle"):
        rotation_sweep(system, count)


@pytest.mark.parametrize("count", [2.5, "4", 1.0])
def test_sweep_count_that_is_not_an_integer_is_refused_as_such(count):
    # 2.5 is more than one angle, yet the refusal named only the floor of one.
    system = diametric_system(1.0, 2.0, 0.5, 1.0)
    message = f"needs an integer count of at least one angle, got count {count!r}"
    for call in (lambda: uniform_angles(count), lambda: rotation_sweep(system, count)):
        with pytest.raises(ValidationError, match=re.escape(message)):
            call()


def test_sweep_count_past_the_ceiling_is_refused_before_any_grid():
    # Uncapped, 10**8 angles asked for tens of GB; the count is refused
    # before a grid or a rotated column exists.
    system = diametric_system(1.0, 2.0, 0.5, 1.0)
    assert len(uniform_angles(MAX_SWEEP_ANGLES)) == MAX_SWEEP_ANGLES
    for call in (lambda: uniform_angles(10**8), lambda: rotation_sweep(system, 10**8),
                 lambda: uniform_angles(MAX_SWEEP_ANGLES + 1)):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f"at most {MAX_SWEEP_ANGLES} angles"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_sweep_grid_cache_holds_one_grid():
    # The grid of the largest sweep, about 3.3 MB, stays cached after the
    # sweep is gone, until a sweep of another count replaces it.  Caching
    # it must not raise the sweep's peak, 21.6 MiB without a cache.
    pair = diametric_system(1.0, 2.0, 0.5, 1.0)
    tracemalloc.start()
    try:
        sweep = rotation_sweep(pair, MAX_SWEEP_ANGLES)
        peak = tracemalloc.get_traced_memory()[1]
        del sweep
        rotation_sweep(pair)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak < 22 * 2**20
    assert held < 0.1 * 2**20


def test_sweep_count_is_read_by_operator_index():
    system = diametric_system(1.0, 2.0, 0.5, 1.0)
    assert uniform_angles(np.int64(4)) == uniform_angles(4)
    assert all(type(angle) is float for angle in uniform_angles(np.int64(4)))
    assert rotation_sweep(system, np.int64(5)) == rotation_sweep(system, 5)


def test_sweep_checks_the_model_then_the_angles_then_their_count():
    # The sweep generates its angles, so they are finite; the model is
    # checked before the angle count.
    with pytest.raises(ValidationError, match="expected a 'disk' system, got 'line'"):
        rotation_sweep(line_system([1.0], [0.1], 1.0), 0)
    with pytest.raises(ValidationError, match="at least one angle"):
        rotation_sweep(diametric_system(1.0, 2.0, 0.5, 1.0), 0)


# --- triples --------------------------------------------------------------------


def test_eulerian_symmetric_triples_balance():
    for masses in ((1.0, 1.0, 1.0), (1.0, 2.0, 1.0)):
        system, com = eulerian_triple(masses, (-0.5, 0.0, 0.5), 1.0)
        assert system.model == "line"
        assert abs(com.center) <= 1e-15
        assert abs(com.log_ratio_mean) <= 1e-15


def test_eulerian_generic_triple_value():
    # Frozen from 50-digit evaluation of the averaged coordinate.
    _, com = eulerian_triple((2.0, 1.0, 1.0), (-0.3, 0.1, 0.5), 1.0)
    assert com.center.real == pytest.approx(0.007650421652432500, abs=1e-14)
    assert com.center.real == pytest.approx(
        com_line_bisection([2.0, 1.0, 1.0], [-0.3, 0.1, 0.5], 1.0), abs=1e-12
    )
    assert com.center.real == pytest.approx(
        com_line(line_system([2.0, 1.0, 1.0], [-0.3, 0.1, 0.5], 1.0)), abs=1e-15
    )


def test_eulerian_validation():
    with pytest.raises(ValidationError):
        eulerian_triple((1.0, 1.0), (-0.5, 0.5), 1.0)


@pytest.mark.parametrize(
    "masses, positions",
    [
        ((1.0, 1.0), (0.0, 0.1)),
        ((1.0, 1.0, 1.0), (0.0, 0.1)),
        ((1.0, 1.0, 1.0, 1.0), (0.0, 0.1, -0.1, 0.2)),
    ],
)
def test_triple_needs_exactly_three_particles(masses, positions):
    # Two and four particles were accepted.  Three masses for two
    # positions fail the line system's count check, which comes first.
    count = f"{len(masses)} masses for {len(positions)} positions"
    expected = "exactly three" if len(masses) == len(positions) else count
    with pytest.raises(ValidationError, match=expected):
        eulerian_triple(masses, positions, 1.0)


def test_lagrangian_value_and_mean_identity():
    system, com = lagrangian_triple(0.5, 1.0)
    assert system.model == "disk"
    # Frozen from 50-digit arithmetic: tanh(log(1.125 / 0.875) / 6).
    assert com.center.real == pytest.approx(0.04186126023461038, abs=1e-10)
    assert abs(com.center.imag) <= 1e-15
    closed = math.log((1.0 + 0.5**3) / (1.0 - 0.5**3)) / 3.0
    assert abs(com.log_ratio_mean - closed) <= 1e-13


def test_lagrangian_small_triangle_limit():
    _, com = lagrangian_triple(1e-4, 1.0)
    assert abs(com.center) <= 1e-12


def test_lagrangian_third_turn_is_a_symmetry():
    from hypercom import disk_system, rotate_disk

    _, com = lagrangian_triple(0.5, 1.0)
    rotated = disk_system(
        [1.0, 1.0, 1.0],
        [
            rotate_disk(0.5 * cmath.exp(2j * math.pi * k / 3.0), 2.0 * math.pi / 3.0)
            for k in range(3)
        ],
        1.0,
    )
    # The rotation permutes the vertex set, and the exact summation makes
    # the center agree to rounding of the rotated inputs.
    assert abs(com_disk(rotated).center - com.center) <= 1e-15


def test_lagrangian_validation():
    with pytest.raises(ValidationError):
        lagrangian_triple(0.0, 1.0)
    with pytest.raises(ValidationError):
        lagrangian_triple(1.0, 1.0)


@pytest.mark.parametrize(
    "build, args",
    [
        (eulerian_triple, ((2.0, 1.0, 1.0), (-0.3, 0.1, 0.5), 1.0)),
        (lagrangian_triple, (0.5, 1.0)),
        (mirror_pair, (1.0, 0.3 + 0.2j, 1.0)),
        (diametric_system, (1.0, 2.0, 0.5, 1.0)),
    ],
    ids=lambda value: getattr(value, "__name__", "args"),
)
def test_each_builder_validates_one_system(monkeypatch, build, args):
    # Each triple validated its particles twice: once for its config's
    # own disk system, once for the system its center came from.
    validated = []
    post_init = MassedSystem.__post_init__

    def counted(system):
        validated.append(system.model)
        post_init(system)

    monkeypatch.setattr(MassedSystem, "__post_init__", counted)
    build(*args)
    assert len(validated) == 1


# --- mirror pairs ---------------------------------------------------------------


def test_mirror_pair_real_position():
    system, com = mirror_pair(1.0, 0.4 + 0j, 1.0)
    assert [p.position for p in system.particles] == [0.4 + 0j, -0.4 + 0j]
    assert abs(com.center) <= 1e-14


def test_mirror_pair_imaginary_position_coincides():
    system, com = mirror_pair(1.0, 0.4j, 1.0)
    assert system.particles[0].position == system.particles[1].position
    assert abs(com.center - 0.4j) <= 1e-14


def test_mirror_pair_center_stays_on_imaginary_axis():
    _, com = mirror_pair(1.0, 0.3 + 0.2j, 1.0)
    assert abs(com.center.real) <= 1e-14
    oracle = com_disk_highprec([1.0, 1.0], [0.3 + 0.2j, -0.3 + 0.2j], 1.0)
    assert abs(com.center - oracle) <= 1e-13
    lifted = unproject(com.center, 1.0)
    assert abs(lifted.x) <= 1e-13

    rng = np.random.default_rng(43)
    for _ in range(100):
        w = complex(*rng.uniform(-0.65, 0.65, 2))
        _, com = mirror_pair(float(rng.uniform(0.1, 5.0)), w, 1.0)
        assert abs(com.center.real) <= 1e-14
