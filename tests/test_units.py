"""Units, constants and conversions."""

import numpy as np
import pytest

from repro import units


def test_boltzmann_constant_value():
    assert units.KB == pytest.approx(8.617333262e-5, rel=1e-6)


def test_acceleration_conversion_constant():
    # 1 eV/A on 1 amu is ~0.0096485 A/fs^2
    assert units.ACC_CONV == pytest.approx(9.6485e-3, rel=1e-3)


def test_kinetic_energy_single_particle():
    masses = np.array([1.0])
    velocities = np.array([[0.01, 0.0, 0.0]])
    expected = 0.5 * 1.0 * 0.01 ** 2 / units.ACC_CONV
    assert units.kinetic_energy(masses, velocities) == pytest.approx(expected)


def test_temperature_matches_equipartition():
    rng = np.random.default_rng(0)
    n = 4000
    mass = 40.0
    sigma = units.maxwell_boltzmann_sigmas([mass], 300.0)[0]
    velocities = rng.normal(0.0, sigma, size=(n, 3))
    masses = np.full(n, mass)
    temperature = units.temperature(masses, velocities, n_dof=3 * n)
    assert temperature == pytest.approx(300.0, rel=0.05)


def test_temperature_zero_for_empty_system():
    assert units.temperature(np.array([]), np.zeros((0, 3))) == 0.0


def test_ns_per_day_known_value():
    # 149 ns/day at 1 fs per step corresponds to ~0.58 ms per step
    assert units.ns_per_day(5.798e-4, 1.0) == pytest.approx(149.0, rel=1e-3)


def test_ns_per_day_scales_with_timestep():
    assert units.ns_per_day(1e-3, 2.0) == pytest.approx(2 * units.ns_per_day(1e-3, 1.0))


def test_ns_per_day_rejects_nonpositive_step_time():
    with pytest.raises(ValueError):
        units.ns_per_day(0.0, 1.0)


def test_maxwell_boltzmann_sigmas_validation():
    with pytest.raises(ValueError):
        units.maxwell_boltzmann_sigmas([40.0, -1.0], 300.0)
    with pytest.raises(ValueError):
        units.maxwell_boltzmann_sigmas([1.0], -300.0)


def test_masses_table_contains_benchmark_elements():
    for symbol in ("H", "O", "Cu"):
        assert symbol in units.MASSES
