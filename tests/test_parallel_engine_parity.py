"""Cross-rank parity suite for the domain-decomposed MD engine.

The headline contract: for the water and copper benchmark systems, every
decomposition in {1x1x1, 2x1x1, 2x2x1, 2x2x2} under both ghost-delivery
schemes (p2p and node-based) reproduces the single-rank ``Simulation``
trajectory step-for-step — positions, velocities, forces and energies within
1e-10 over >= 20 steps that include several neighbour rebuilds and (for
multi-rank grids) rank-to-rank migrations.

Also here: the engine's conservation/equivalence properties (global atom
count under migration, ghost-force reverse scatter summing to the serial
force, p2p vs node-based scheme equivalence) and the migration edge cases
(atoms exactly on a sub-box face, atoms crossing a periodic boundary in one
step, 2- and 3-layer ghost shells).
"""

import numpy as np
import pytest

from repro.deepmd import DeepPotential, DeepPotentialConfig
from repro.deepmd.pair_style import DeepPotentialForceField
from repro.md import (
    Atoms,
    Box,
    GuptaPotential,
    LennardJones,
    MorsePotential,
    Simulation,
    copper_system,
    water_system,
)
from repro.md.forcefields.water import WaterReference
from repro.parallel import DomainDecomposedSimulation
from repro.parallel.ghost import layers_for_cutoff

TOLERANCE = 1.0e-10
#: Cross-rank bound for the MIX-fp32 Deep Potential case.  The per-atom
#: kernels are batch-shape independent, so on this container the engine is
#: bit-identical to the serial mixed trajectory (measured max |dF| ~3e-19
#: over 20 steps at 2x2x2) — but fp32 GEMMs do not contractually promise
#: bitwise invariance to the per-rank batch shapes (a BLAS may pick a
#: different blocking per shape and round at ~1e-7 relative), so the mixed
#: contract is documented looser than the fp64 1e-10 one.
MIXED_TOLERANCE = 1.0e-6
N_STEPS = 20
DECOMPOSITIONS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]
SCHEMES = ["p2p", "node-based"]


# ---------------------------------------------------------------------------
# Benchmark systems (module-scoped: the serial references are shared by every
# decomposition x scheme combination)
# ---------------------------------------------------------------------------


def _water_setup():
    """A 64-molecule box, hot and jittered enough to migrate within 20 steps."""
    atoms, box, topology = water_system(64, rng=4, jitter=0.5)
    atoms.initialize_velocities(500.0, rng=5)
    force_field = lambda: WaterReference(topology, cutoff=4.0)  # noqa: E731
    params = dict(timestep_fs=0.5, neighbor_skin=0.5, neighbor_every=5)
    return atoms, box, force_field, params


def _copper_dp_setup(compressed=False, precision="double"):
    """A 108-atom FCC copper cell driven by a tiny Deep Potential."""
    config = DeepPotentialConfig(
        type_names=("Cu",),
        cutoff=4.5,
        cutoff_smooth=3.5,
        embedding_sizes=(6, 12),
        axis_neurons=4,
        fitting_sizes=(16, 16),
        max_neighbors=48,
        seed=0,
    )
    model = DeepPotential(config)
    rng = np.random.default_rng(0)
    model.set_descriptor_stats(
        rng.normal(scale=0.1, size=(1, config.descriptor_dim)),
        0.5 + rng.random((1, config.descriptor_dim)),
    )
    model.set_energy_bias(np.array([-1.0]))
    atoms, box = copper_system((3, 3, 3), perturbation=0.05, rng=6)
    atoms.initialize_velocities(300.0, rng=7)
    force_field = lambda: DeepPotentialForceField(  # noqa: E731
        model, compressed=compressed, precision=precision
    )
    params = dict(timestep_fs=0.5, neighbor_skin=0.4, neighbor_every=5)
    return atoms, box, force_field, params


def _serial_reference(atoms, box, force_field, params, n_steps=N_STEPS):
    """Per-step snapshots of the single-rank trajectory."""
    sim = Simulation(atoms.copy(), box, force_field(), **params)
    snapshots = []
    for _ in range(n_steps):
        sim.run(1)
        snapshots.append(
            {
                "positions": sim.atoms.positions.copy(),
                "velocities": sim.atoms.velocities.copy(),
                "forces": sim.atoms.forces.copy(),
                "energy": sim._last_energy,
                "builds": sim.neighbor_list.n_builds,
            }
        )
    return snapshots


@pytest.fixture(scope="module")
def water_case():
    atoms, box, force_field, params = _water_setup()
    return atoms, box, force_field, params, _serial_reference(atoms, box, force_field, params)


@pytest.fixture(scope="module")
def copper_dp_case():
    atoms, box, force_field, params = _copper_dp_setup()
    return atoms, box, force_field, params, _serial_reference(atoms, box, force_field, params)


@pytest.fixture(scope="module")
def compressed_copper_dp_case():
    atoms, box, force_field, params = _copper_dp_setup(compressed=True)
    return atoms, box, force_field, params, _serial_reference(atoms, box, force_field, params)


@pytest.fixture(scope="module")
def mixed_copper_dp_case():
    atoms, box, force_field, params = _copper_dp_setup(compressed=True, precision="mix-fp32")
    return atoms, box, force_field, params, _serial_reference(atoms, box, force_field, params)


def _assert_engine_matches(case, rank_dims, scheme, n_steps=N_STEPS, atol=TOLERANCE):
    atoms, box, force_field, params, reference = case
    engine = DomainDecomposedSimulation(
        atoms.copy(), box, force_field(), rank_dims=rank_dims, scheme=scheme, **params
    )
    for step in range(n_steps):
        engine.run(1)
        gathered = engine.gather()
        expected = reference[step]
        np.testing.assert_allclose(
            gathered.positions, expected["positions"], rtol=0.0, atol=atol,
            err_msg=f"positions diverged at step {step} ({rank_dims}, {scheme})",
        )
        np.testing.assert_allclose(
            gathered.velocities, expected["velocities"], rtol=0.0, atol=atol,
            err_msg=f"velocities diverged at step {step} ({rank_dims}, {scheme})",
        )
        np.testing.assert_allclose(
            gathered.forces, expected["forces"], rtol=0.0, atol=atol,
            err_msg=f"forces diverged at step {step} ({rank_dims}, {scheme})",
        )
        assert engine._last_energy == pytest.approx(expected["energy"], abs=atol)
        # the rebuild schedule itself must be in lockstep with the serial loop
        assert engine.n_builds == expected["builds"]
        # the global atom set is conserved through every migration
        owned = np.concatenate([domain.gids for domain in engine.domains])
        np.testing.assert_array_equal(np.sort(owned), np.arange(engine.n_global))
    assert engine.n_builds >= 2  # >= 1 rebuild beyond the initial build
    if engine.n_ranks > 1:
        assert engine.n_migrated >= 1  # >= 1 rank-to-rank migration
    return engine


# ---------------------------------------------------------------------------
# The headline matrix: decomposition x scheme x {water classical, copper DP}
# ---------------------------------------------------------------------------


class TestTrajectoryParityWater:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("rank_dims", DECOMPOSITIONS)
    def test_water_matches_serial(self, water_case, rank_dims, scheme):
        _assert_engine_matches(water_case, rank_dims, scheme)


class TestTrajectoryParityCopperDeepPotential:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("rank_dims", DECOMPOSITIONS)
    def test_copper_dp_matches_serial(self, copper_dp_case, rank_dims, scheme):
        _assert_engine_matches(copper_dp_case, rank_dims, scheme)


class TestTrajectoryParityCompressedDeepPotential:
    """compressed=True runs the batched multi-table interpolation on every
    rank (masked ghost rows, per-rank workspaces); it must stay in lockstep
    with the serial compressed trajectory exactly like the exact path."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("rank_dims", [(2, 1, 1), (2, 2, 2)])
    def test_compressed_copper_dp_matches_serial(
        self, compressed_copper_dp_case, rank_dims, scheme
    ):
        engine = _assert_engine_matches(compressed_copper_dp_case, rank_dims, scheme)
        assert engine.force_field.describe()["compressed"] is True


class TestTrajectoryParityMixedPrecisionDeepPotential:
    """MIX-fp32 + compressed: the production fast path under decomposition.

    The reference here is the *serial mixed* trajectory (not the fp64 one):
    cross-rank parity asserts that decomposition does not change what the
    mixed kernels compute, under its own :data:`MIXED_TOLERANCE` bound —
    looser than the fp64 1e-10 contract because the fp32 GEMM/table path is
    not contractually bit-invariant to the per-rank batch shapes.
    """

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("rank_dims", [(2, 1, 1), (2, 2, 2)])
    def test_mixed_copper_dp_matches_serial_mixed(
        self, mixed_copper_dp_case, rank_dims, scheme
    ):
        engine = _assert_engine_matches(
            mixed_copper_dp_case, rank_dims, scheme, atol=MIXED_TOLERANCE
        )
        info = engine.force_field.describe()
        assert info["precision"] == "mix-fp32"
        assert info["table_dtype"] == "fp32"


# ---------------------------------------------------------------------------
# Force-decomposition parity for the remaining classical force fields
# ---------------------------------------------------------------------------


class TestOtherForceFields:
    """Each parallel strategy reproduces the serial trajectory (one grid)."""

    def _copper(self, temperature, seed):
        atoms, box = copper_system((3, 3, 3), perturbation=0.05, rng=seed)
        atoms.initialize_velocities(temperature, rng=seed + 1)
        return atoms, box

    @pytest.mark.parametrize(
        "force_field, params",
        [
            (lambda: LennardJones(0.05, 2.3, 5.0), dict(timestep_fs=2.0, neighbor_skin=0.4, neighbor_every=5)),
            (lambda: MorsePotential(cutoff=5.0), dict(timestep_fs=2.0, neighbor_skin=0.4, neighbor_every=5)),
            (lambda: GuptaPotential(cutoff=5.0), dict(timestep_fs=2.0, neighbor_skin=0.4, neighbor_every=5)),
        ],
        ids=["lj", "morse", "gupta"],
    )
    def test_classical_parity_2x2x2(self, force_field, params):
        atoms, box = self._copper(400.0, 2)
        case = (atoms, box, force_field, params, _serial_reference(atoms, box, force_field, params))
        engine = _assert_engine_matches(case, (2, 2, 2), "p2p")
        assert engine.n_migrated >= 1


# ---------------------------------------------------------------------------
# Thermostatted parity (the shared loop applies thermostats identically)
# ---------------------------------------------------------------------------


class TestThermostattedParity:
    """Step-for-step parity survives a thermostat: the shared stepping core
    applies it at the same point (after the second half-kick, before
    sampling) in both backends, and the engine's gathered-velocity collective
    is bit-compatible with the serial update."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_berendsen_parity_2x2x1(self, scheme):
        from repro.md import BerendsenThermostat

        atoms, box = copper_system((3, 3, 3), perturbation=0.05, rng=20)
        atoms.initialize_velocities(600.0, rng=21)
        force_field = lambda: LennardJones(0.05, 2.3, 5.0)  # noqa: E731
        params = dict(timestep_fs=2.0, neighbor_skin=0.4, neighbor_every=5)

        serial = Simulation(
            atoms.copy(), box, force_field(),
            thermostat=BerendsenThermostat(300.0, coupling_fs=60.0), **params,
        )
        engine = DomainDecomposedSimulation(
            atoms.copy(), box, force_field(), rank_dims=(2, 2, 1), scheme=scheme,
            thermostat=BerendsenThermostat(300.0, coupling_fs=60.0), **params,
        )
        for step in range(15):
            serial.run(1)
            engine.run(1)
            gathered = engine.gather()
            np.testing.assert_allclose(
                gathered.positions, serial.atoms.positions, rtol=0.0, atol=TOLERANCE,
                err_msg=f"thermostatted positions diverged at step {step} ({scheme})",
            )
            np.testing.assert_allclose(
                gathered.velocities, serial.atoms.velocities, rtol=0.0, atol=TOLERANCE,
                err_msg=f"thermostatted velocities diverged at step {step} ({scheme})",
            )
            assert engine.n_builds == serial.neighbor_list.n_builds
        assert engine.n_builds >= 2


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


class TestEngineProperties:
    def test_atom_count_conserved_under_heavy_migration(self):
        """A hot gas rebuilding every step keeps exactly one owner per atom."""
        rng = np.random.default_rng(0)
        box = Box.cubic(14.0)
        positions = rng.uniform(0.0, 14.0, size=(96, 3))
        atoms = Atoms.from_symbols(positions, ["Cu"] * 96)
        atoms.initialize_velocities(2500.0, rng=1)
        engine = DomainDecomposedSimulation(
            atoms, box, LennardJones(0.01, 2.3, 4.0), timestep_fs=2.0,
            rank_dims=(2, 2, 2), neighbor_skin=0.3, neighbor_every=1,
        )
        for _ in range(15):
            engine.run(1)
            owned = np.concatenate([domain.gids for domain in engine.domains])
            assert len(owned) == 96
            np.testing.assert_array_equal(np.sort(owned), np.arange(96))
            assert engine.owned_counts().sum() == 96
        assert engine.n_migrated > 0

    @pytest.mark.parametrize(
        "force_field",
        [
            lambda: LennardJones(0.05, 2.3, 5.0),
            lambda: GuptaPotential(cutoff=5.0),
        ],
        ids=["lj", "gupta"],
    )
    def test_ghost_reverse_scatter_sums_to_serial_force(self, force_field):
        """Owner contributions + scattered ghost forces == the serial forces."""
        atoms, box = copper_system((3, 3, 3), perturbation=0.08, rng=9)
        serial = Simulation(atoms.copy(), box, force_field(), timestep_fs=1.0, neighbor_skin=0.4)
        serial.compute_forces()
        engine = DomainDecomposedSimulation(
            atoms.copy(), box, force_field(), timestep_fs=1.0,
            rank_dims=(2, 2, 2), neighbor_skin=0.4,
        )
        engine.compute_forces()
        # the scatter genuinely moves force: cross-rank pairs left nonzero
        # contributions on ghost copies before the reverse exchange
        assert engine.comm_bytes_reverse > 0
        np.testing.assert_allclose(
            engine.gather().forces, serial.atoms.forces, rtol=0.0, atol=1.0e-12
        )
        assert engine._last_energy == pytest.approx(serial._last_energy, abs=1.0e-12)

    def test_scheme_equivalence_p2p_vs_node_based(self):
        """Both delivery schemes produce the same dynamics (1e-10)."""
        atoms, box = copper_system((3, 3, 3), perturbation=0.05, rng=12)
        atoms.initialize_velocities(400.0, rng=13)
        engines = {
            scheme: DomainDecomposedSimulation(
                atoms.copy(), box, GuptaPotential(cutoff=5.0), timestep_fs=2.0,
                rank_dims=(2, 2, 2), scheme=scheme, neighbor_skin=0.4, neighbor_every=5,
            )
            for scheme in SCHEMES
        }
        for _ in range(10):
            states = {}
            for scheme, engine in engines.items():
                engine.run(1)
                states[scheme] = engine.gather()
            np.testing.assert_allclose(
                states["p2p"].positions, states["node-based"].positions, rtol=0.0, atol=TOLERANCE
            )
            np.testing.assert_allclose(
                states["p2p"].forces, states["node-based"].forces, rtol=0.0, atol=TOLERANCE
            )
        # node-based ships node-box slabs: never fewer ghosts than p2p needs
        assert engines["node-based"].ghost_counts().min() >= engines["p2p"].ghost_counts().min()


# ---------------------------------------------------------------------------
# Migration edge cases (exact faces, periodic crossings, deep ghost shells)
# ---------------------------------------------------------------------------


def _gas_engine(box_length, rank_dims, cutoff, positions, velocities, neighbor_skin=1.0):
    box = Box.cubic(box_length)
    atoms = Atoms.from_symbols(np.asarray(positions, dtype=np.float64), ["Cu"] * len(positions))
    atoms.velocities = np.asarray(velocities, dtype=np.float64)
    return DomainDecomposedSimulation(
        atoms, box, LennardJones(0.01, 2.3, cutoff), timestep_fs=1.0,
        rank_dims=rank_dims, neighbor_skin=neighbor_skin, neighbor_every=1,
    )


class TestMigrationEdgeCases:
    def _assert_unique_ownership(self, engine):
        owned = np.concatenate([domain.gids for domain in engine.domains])
        assert len(owned) == engine.n_global, "an atom was lost or duplicated"
        np.testing.assert_array_equal(np.sort(owned), np.arange(engine.n_global))
        for domain in engine.domains:
            # a rank never holds an owned atom as its own ghost
            assert not np.intersect1d(domain.gids, domain.ghost_gids).size

    @pytest.mark.parametrize(
        "rank_dims, box_length, cutoff, expected_layers",
        [((4, 1, 1), 24.0, 7.0, (2, 1, 1)), ((6, 1, 1), 24.0, 9.0, (3, 1, 1))],
        ids=["two-layer", "three-layer"],
    )
    def test_face_atom_owned_exactly_once(self, rank_dims, box_length, cutoff, expected_layers):
        rng = np.random.default_rng(3)
        positions = rng.uniform(0.0, box_length, size=(40, 3))
        # park atoms exactly on internal sub-box faces and on the box edge
        sub = box_length / rank_dims[0]
        positions[0] = [sub, 5.0, 5.0]
        positions[1] = [2.0 * sub, 9.0, 9.0]
        positions[2] = [0.0, 12.0, 3.0]
        positions[3] = [box_length, 7.0, 7.0]  # wraps onto the x=0 face
        velocities = rng.normal(scale=5.0e-3, size=(40, 3))
        engine = _gas_engine(box_length, rank_dims, cutoff, positions, velocities)
        layers = layers_for_cutoff(engine.decomposition.sub_box_lengths, engine.exchange.cutoff)
        assert layers == expected_layers
        engine.compute_forces()
        self._assert_unique_ownership(engine)
        # the exact-face atoms land in the upper cell of their face
        assert engine._owner_of[0] == engine.decomposition.assign_to_ranks(positions[:1])[0]
        assert engine._owner_of[2] == 0
        assert engine._owner_of[3] == 0
        for _ in range(3):
            engine.run(1)
            self._assert_unique_ownership(engine)

    @pytest.mark.parametrize(
        "rank_dims, box_length, cutoff",
        [((4, 1, 1), 24.0, 7.0), ((6, 1, 1), 24.0, 9.0)],
        ids=["two-layer", "three-layer"],
    )
    def test_periodic_crossing_in_one_step(self, rank_dims, box_length, cutoff):
        rng = np.random.default_rng(4)
        positions = rng.uniform(0.5, box_length - 0.5, size=(30, 3))
        velocities = np.zeros((30, 3))
        # atom 0 charges through the periodic +x boundary in a single step
        positions[0] = [box_length - 0.05, 11.0, 11.0]
        velocities[0] = [0.2, 0.0, 0.0]
        # atom 1 crosses an interior face backwards
        sub = box_length / rank_dims[0]
        positions[1] = [sub + 0.05, 4.0, 4.0]
        velocities[1] = [-0.2, 0.0, 0.0]
        engine = _gas_engine(box_length, rank_dims, cutoff, positions, velocities)
        engine.compute_forces()
        first_owner = int(engine._owner_of[0])
        assert first_owner == engine.n_ranks - 1
        engine.run(1)  # neighbor_every=1: migration happens this step
        self._assert_unique_ownership(engine)
        assert int(engine._owner_of[0]) == 0, "periodic crossing must hand the atom to rank 0"
        assert int(engine._owner_of[1]) == 0
        assert engine.n_migrated >= 2
