"""Physical constants and unit conventions used throughout the package.

The package uses a LAMMPS ``metal``-flavoured unit system, except that the
native time unit is the femtosecond (the paper quotes all time-steps in fs):

===========  =======================
quantity     unit
===========  =======================
length       angstrom (A)
energy       electron-volt (eV)
mass         atomic mass unit (amu, g/mol)
time         femtosecond (fs)
temperature  kelvin (K)
force        eV / A
velocity     A / fs
pressure     eV / A^3 (rarely used)
===========  =======================

With these units Newton's second law picks up a conversion factor:

    acceleration [A/fs^2] = ACC_CONV * force [eV/A] / mass [amu]

and the kinetic energy of a particle is

    E_kin [eV] = 0.5 * mass [amu] * v^2 [A^2/fs^2] / ACC_CONV
"""

from __future__ import annotations


# --- fundamental constants (CODATA 2018) -----------------------------------
ELECTRON_VOLT = 1.602176634e-19  # J
ATOMIC_MASS = 1.66053906660e-27  # kg
BOLTZMANN_J = 1.380649e-23  # J/K
AVOGADRO = 6.02214076e23  # 1/mol

#: Boltzmann constant in eV/K.
KB = BOLTZMANN_J / ELECTRON_VOLT  # 8.617333262e-5 eV/K

#: Conversion factor: a [A/fs^2] = ACC_CONV * F [eV/A] / m [amu].
#:
#: Derivation: F/m in SI is (eV/A)/amu = ELECTRON_VOLT/(1e-10 * ATOMIC_MASS)
#: m/s^2; one A/fs^2 equals 1e20 m/s^2.
ACC_CONV = ELECTRON_VOLT / (1.0e-10 * ATOMIC_MASS) / 1.0e20  # ~9.6485e-3

#: Kinetic-energy conversion: E [eV] = KE_CONV * m [amu] * v^2 [A^2/fs^2].
KE_CONV = 0.5 / ACC_CONV

#: femtoseconds per nanosecond / per day, used for ns/day conversions.
FS_PER_NS = 1.0e6
SECONDS_PER_DAY = 86400.0

# --- element data ------------------------------------------------------------
#: Atomic masses (amu) for the species used in the paper's benchmarks.
MASSES = {
    "H": 1.00794,
    "O": 15.9994,
    "Cu": 63.546,
}

#: Conventional FCC lattice constant of copper in A.
CU_LATTICE_CONSTANT = 3.615

#: Experimental density of liquid water (g/cm^3) used to size water boxes.
WATER_DENSITY = 0.997


def kinetic_energy(masses, velocities) -> float:
    """Total kinetic energy in eV.

    Parameters
    ----------
    masses:
        per-atom masses, shape ``(n,)`` in amu.
    velocities:
        per-atom velocities, shape ``(n, 3)`` in A/fs.
    """
    import numpy as np

    v2 = np.einsum("ij,ij->i", velocities, velocities)
    return float(KE_CONV * np.dot(masses, v2))


def temperature(masses, velocities, n_dof: int | None = None) -> float:
    """Instantaneous temperature (K) from the equipartition theorem."""
    n = len(masses)
    if n == 0:
        return 0.0
    if n_dof is None:
        n_dof = max(3 * n - 3, 1)
    return 2.0 * kinetic_energy(masses, velocities) / (n_dof * KB)


def ns_per_day(step_time_seconds: float, timestep_fs: float) -> float:
    """Simulated nanoseconds per wall-clock day.

    ``step_time_seconds`` is the wall-clock (or modelled) time of one MD step;
    ``timestep_fs`` is the integration time-step in femtoseconds.
    """
    if step_time_seconds <= 0:
        raise ValueError("step time must be positive")
    steps_per_day = SECONDS_PER_DAY / step_time_seconds
    return steps_per_day * timestep_fs / FS_PER_NS


def maxwell_boltzmann_sigmas(masses_amu, temperature_k: float):
    """Standard deviation (A/fs) of each velocity component at a temperature, per mass.

    Used by the thermostats and velocity initialization, so per-atom sigma
    arrays are one expression instead of a Python loop.
    """
    import numpy as np

    masses_amu = np.asarray(masses_amu, dtype=np.float64)
    if np.any(masses_amu <= 0):
        raise ValueError("mass must be positive")
    if temperature_k < 0:
        raise ValueError("temperature must be non-negative")
    return np.sqrt(KB * temperature_k * ACC_CONV / masses_amu)
