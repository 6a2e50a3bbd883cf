"""The serving subsystem: packing, fused batched evaluation, engine, caches.

Fast tier: parity pins (batched vs. the frozen serial references at 1e-10),
packing invariants, admission batching, cross-request cache reuse and the
degenerate-request contract.  The ``slow``-marked stress tier drives the
threaded engine with many concurrent clients and mixed request kinds.
"""

import hashlib
import inspect
import os
import sys
import threading
import time
import warnings
from concurrent.futures import CancelledError

import numpy as np
import pytest
from blas_kernel import kernel_note
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.deepmd import AccuracyWarning, DeepPotential, DeepPotentialConfig
from repro.deepmd.envmat import LocalEnvironment, build_local_environment
from repro.deepmd.precision import MIX_FP32
from repro.md.atoms import Atoms
from repro.md.box import Box
from repro.md.neighbor import build_neighbor_data
from repro.md.workspace import Workspace
from repro.serving import ServingEngine, evaluate_serial, pack_systems, prepare_system
from repro.serving.queue import AdmissionQueue, ServingRequest
from repro.serving.serial import run_bursts_serial

#: fp64 pin of the batched path against the serial golden reference.
PARITY_ATOL = 1e-10


@pytest.fixture(scope="module")
def serving_model():
    """A tiny short-cutoff model so molecule-sized systems are legal."""
    config = DeepPotentialConfig(
        type_names=("Cu",),
        cutoff=4.5,
        cutoff_smooth=3.5,
        embedding_sizes=(6, 12),
        axis_neurons=4,
        fitting_sizes=(16, 16),
        max_neighbors=16,
        seed=3,
    )
    return DeepPotential(config)


def _cluster(n_atoms: int, rng: int):
    """A small jittered-grid cluster in a large open (non-periodic) box."""
    r = np.random.default_rng(rng)
    grid = np.stack(np.meshgrid(*[np.arange(3)] * 3, indexing="ij"), axis=-1)
    positions = grid.reshape(-1, 3)[:n_atoms] * 2.4 + r.normal(scale=0.15, size=(n_atoms, 3)) + 2.0
    atoms = Atoms(
        positions=positions,
        types=np.zeros(n_atoms, dtype=np.int64),
        masses=np.full(n_atoms, 63.546),
    )
    return atoms, Box.cubic(40.0, periodic=False)


def _mixed_systems(model, sizes=(6, 9, 4, 8), rng0=50):
    return [prepare_system(model, *_cluster(n, rng0 + i)) for i, n in enumerate(sizes)]


_ENV_FIELDS = ("R", "displacements", "distances", "s", "ds_dr", "mask", "neighbor_indices", "neighbor_types", "types")
_OVERFLOWS = "an atom has .* neighbours inside the cutoff but max_neighbors=16"


def _copper(positions):
    n = len(positions)
    return Atoms(positions=positions, types=np.zeros(n, dtype=np.int64), masses=np.full(n, 63.546))


def _lattice(shape, spacing, jitter, rng):
    grid = np.stack(np.meshgrid(*[np.arange(k) for k in shape], indexing="ij"), axis=-1).reshape(-1, 3)
    return grid * spacing + rng.normal(scale=jitter, size=grid.shape)


def _geometry_mix(model, n_systems=32):
    """Open, periodic and slab boxes of different lengths, plus the edge cases.

    The first three are a periodic box, a 27-atom cluster in an open box of
    infinite lengths whose centre sees 26 neighbours against
    ``max_neighbors=16`` (the truncation branch) and a slab; then a one-atom
    system and a two-atom system with no pairs.
    """
    r = np.random.default_rng(17)
    open_box = Box.cubic(40.0, periodic=False)
    systems = [
        (_copper(_lattice((3, 3, 3), 3.3, 0.2, r)), Box.cubic(9.9)),
        (_copper(_lattice((3, 3, 3), 2.4, 0.1, r) + 2.0), Box(np.full(3, np.inf), (False,) * 3)),
        (_copper(_lattice((3, 3, 2), (3.4, 3.6, 3.0), 0.2, r) + (0.0, 0.0, 5.0)),
         Box(np.array([10.2, 10.8, 30.0]), (True, True, False))),
        (_copper(np.array([[20.0, 20.0, 20.0]])), open_box),
        (_copper(np.array([[5.0, 5.0, 5.0], [25.0, 25.0, 25.0]])), open_box),
    ]
    for k in range(n_systems - len(systems)):
        length = 9.5 + 0.3 * k
        kind = k % 3
        if kind == 0:
            systems.append(_cluster(int(r.integers(3, 13)), 300 + k))
        elif kind == 1:
            systems.append((_copper(_lattice((3, 3, 3), length / 3, 0.2, r)), Box.cubic(length)))
        else:
            slab = _lattice((3, 3, 2), (length / 3, length / 3, 3.0), 0.2, r) + (0.0, 0.0, 4.0)
            systems.append((_copper(slab), Box(np.array([length, length, 20.0]), (True, True, False))))
    return [prepare_system(model, atoms, box) for atoms, box in systems]


def _per_system_batch(model, systems):
    """The batch as each system's own ``build_environment``, concatenated and rebased."""
    envs = [model.build_environment(*system) for system in systems]
    offsets = np.concatenate([[0], np.cumsum([env.n_atoms for env in envs])]).astype(np.int64)
    fields = {name: np.concatenate([getattr(env, name) for env in envs]) for name in _ENV_FIELDS}
    fields["neighbor_indices"] = np.concatenate(
        [np.where(env.neighbor_indices >= 0, env.neighbor_indices + lo, -1) for env, lo in zip(envs, offsets)]
    )
    env = LocalEnvironment(**fields, cutoff=model.config.cutoff, cutoff_smooth=model.config.cutoff_smooth)
    return env, np.repeat(np.arange(len(envs)), np.diff(offsets)), offsets


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------


class TestPacking:
    def test_offsets_and_system_of_atom(self, serving_model):
        systems = _mixed_systems(serving_model)
        batch = pack_systems(serving_model, systems)
        sizes = [len(atoms) for atoms, _, _ in systems]
        np.testing.assert_array_equal(batch.offsets, np.concatenate([[0], np.cumsum(sizes)]))
        assert batch.n_systems == len(systems)
        assert batch.n_atoms == sum(sizes)
        for s in range(batch.n_systems):
            np.testing.assert_array_equal(batch.system_of_atom[batch.system_slice(s)], s)

    def test_neighbor_indices_rebased_and_padding_preserved(self, serving_model):
        systems = _mixed_systems(serving_model)
        batch = pack_systems(serving_model, systems)
        for s, (atoms, box, neighbors) in enumerate(systems):
            env = serving_model.build_environment(atoms, box, neighbors)
            rows = batch.system_slice(s)
            packed = batch.env.neighbor_indices[rows]
            expected = np.where(env.neighbor_indices >= 0, env.neighbor_indices + rows.start, -1)
            np.testing.assert_array_equal(packed, expected)
            # every real neighbour index stays inside its own system's rows
            real = packed[packed >= 0]
            assert real.min() >= rows.start and real.max() < rows.stop

    def test_empty_batch(self, serving_model):
        batch = pack_systems(serving_model, [])
        assert batch.n_systems == 0 and batch.n_atoms == 0
        for name in _ENV_FIELDS:
            assert len(getattr(batch.env, name)) == 0
        assert batch.env.R.shape[1:] == (serving_model.config.max_neighbors, 4)
        out = serving_model.evaluate_many(batch.env, batch.system_of_atom, batch.offsets)
        assert out.energies.shape == (0,) and out.forces.shape == (0, 3)
        assert out.split() == []
        # an empty batch evaluates nothing, so a compressed one builds no table
        fresh = DeepPotential(serving_model.config)
        fresh.evaluate_many(batch.env, batch.system_of_atom, batch.offsets, compressed=True)
        assert fresh.table_cache_builds == 0

    @pytest.mark.parametrize("width", [1, 3, 32])
    def test_single_pass_equals_per_system_environments(self, serving_model, width):
        """All nine packed fields are bit for bit each system's own build_environment."""
        systems = _geometry_mix(serving_model)[:width]
        expected, system_of_atom, offsets = _per_system_batch(serving_model, systems)
        for workspace in (None, Workspace()):
            batch = pack_systems(serving_model, systems, workspace=workspace)
            np.testing.assert_array_equal(batch.offsets, offsets)
            np.testing.assert_array_equal(batch.system_of_atom, system_of_atom)
            for name in _ENV_FIELDS:
                np.testing.assert_array_equal(getattr(batch.env, name), getattr(expected, name), err_msg=name)
        assert batch.env.max_in_cutoff == max(serving_model.build_environment(*system).max_in_cutoff for system in systems)
        assert (batch.env.max_in_cutoff > 16) == (width > 1)

    def test_workspace_pack_is_pooled_after_warmup(self, serving_model):
        ws = Workspace()
        systems = _mixed_systems(serving_model)
        pack_systems(serving_model, systems, workspace=ws)
        misses = ws.misses
        # same sizes: pure pool hits; smaller batch: grow-only views, no misses
        pack_systems(serving_model, systems, workspace=ws)
        pack_systems(serving_model, systems[:2], workspace=ws)
        assert ws.misses == misses


#: A two-type model with a small neighbour budget, so generated systems reach
#: the type grouping and the truncation branch of the environment build.
_TWO_TYPES = DeepPotentialConfig(
    type_names=("A", "B"),
    cutoff=4.5,
    cutoff_smooth=3.5,
    embedding_sizes=(4, 8),
    axis_neurons=2,
    fitting_sizes=(8,),
    max_neighbors=8,
    seed=13,
)


@st.composite
def _packable_system(draw):
    """A 1-14 atom system in a periodic, open, infinitely open or slab box.

    Atoms sit on distinct jittered sites of a 4 x 4 x 4 grid 1.8 A apart, so
    dense draws overflow the 8-neighbour budget; a periodic length of
    9.2-10 A brings the far faces' images inside the cutoff but never closer
    than 3 A, every atom is inside every open axis of finite length, and
    along an infinite axis the cluster is shifted far from the origin.
    """
    kind = draw(st.sampled_from(["periodic", "open", "infinite", "slab"]))
    n = draw(st.integers(1, 14))
    seed = draw(st.integers(0, 2**32 - 1))
    r = np.random.default_rng(seed)
    sites = r.choice(64, size=n, replace=False)
    positions = np.stack(np.unravel_index(sites, (4, 4, 4)), axis=1) * 1.8 + 0.6
    positions += r.uniform(-0.25, 0.25, size=(n, 3))
    lengths = r.uniform(9.2, 10.0, size=3)
    if kind == "infinite":
        box = Box(np.full(3, np.inf), (False,) * 3)
        positions += r.uniform(-500.0, 500.0, size=3)
    else:
        box = Box(lengths, {"periodic": (True,) * 3, "open": (False,) * 3, "slab": (True, True, False)}[kind])
    types = r.integers(0, 2, size=n)
    return Atoms(positions=positions, types=types, masses=np.ones(n)), box


class TestPackProperty:
    @settings(max_examples=60, deadline=None)
    @given(draws=st.lists(_packable_system(), min_size=1, max_size=5))
    def test_each_system_packs_to_its_own_environment(self, draws):
        """Every packed row is bit for bit the row its system's own
        ``build_local_environment`` gives, neighbour indices shifted by the
        system's offset, whatever boxes share the batch."""
        model = DeepPotential(_TWO_TYPES)
        config = model.config
        systems = [prepare_system(model, atoms, box) for atoms, box in draws]
        batch = pack_systems(model, systems, workspace=Workspace())
        for s, (atoms, box, neighbors) in enumerate(systems):
            own = build_local_environment(
                atoms, box, neighbors, config.cutoff, config.cutoff_smooth, config.max_neighbors
            )
            rows = batch.system_slice(s)
            for name in _ENV_FIELDS:
                expected = getattr(own, name)
                if name == "neighbor_indices":
                    expected = np.where(expected >= 0, expected + rows.start, -1)
                np.testing.assert_array_equal(getattr(batch.env, name)[rows], expected, err_msg=name)
        assert batch.env.max_in_cutoff == max(
            build_local_environment(a, b, nd, config.cutoff, config.cutoff_smooth, config.max_neighbors).max_in_cutoff
            for a, b, nd in systems
        )


# ---------------------------------------------------------------------------
# Fused batched evaluation vs. the serial golden reference
# ---------------------------------------------------------------------------


#: sha256 over the energies, forces, virials and per-atom energies that
#: ``ServingEngine.evaluate_batch`` returns for three batches (widths 1, 3 and
#: 32) of seeded 4-12-atom open-box clusters, compressed, per precision.
SERVED_BATCH_SHA256 = {
    "double": "61b54484d3b8e899980560ec3dd59a59905611fb3b1ddf571645648dff237803",
    "mix-fp32": "47739b98f53c440ce066814e0f0aead926b35f0a3c1c000ba0f85057f7ccf916",
}


class TestBatchedParity:
    @pytest.mark.parametrize("compressed", [False, True])
    def test_fp64_parity_with_serial_reference(self, serving_model, compressed):
        systems = _mixed_systems(serving_model)
        table = serving_model.compressed_embeddings() if compressed else None
        reference = evaluate_serial(
            serving_model, systems, compressed=compressed, compression_table=table
        )
        ws = Workspace()
        batch = pack_systems(serving_model, systems, workspace=ws)
        out = serving_model.evaluate_many(
            batch.env,
            batch.system_of_atom,
            batch.offsets,
            compressed=compressed,
            compression_table=table,
            workspace=ws,
        )
        for s, ref in enumerate(reference):
            rows = batch.system_slice(s)
            assert abs(out.energies[s] - ref.energy) < PARITY_ATOL
            np.testing.assert_allclose(out.forces[rows], ref.forces, atol=PARITY_ATOL)
            np.testing.assert_allclose(out.virials[s], ref.virial, atol=PARITY_ATOL)
            np.testing.assert_allclose(
                out.per_atom_energy[rows], ref.per_atom_energy, atol=PARITY_ATOL
            )

    def test_split_copies_match_and_survive_repack(self, serving_model):
        systems = _mixed_systems(serving_model)
        ws = Workspace()
        batch = pack_systems(serving_model, systems, workspace=ws)
        out = serving_model.evaluate_many(
            batch.env, batch.system_of_atom, batch.offsets, workspace=ws
        )
        parts = out.split()
        reference = evaluate_serial(serving_model, systems)
        # overwrite the pool by evaluating a different batch through the same
        # workspace; the split outputs must be unaffected (they are copies)
        other = pack_systems(serving_model, systems[::-1], workspace=ws)
        serving_model.evaluate_many(other.env, other.system_of_atom, other.offsets, workspace=ws)
        for part, ref in zip(parts, reference):
            assert abs(part.energy - ref.energy) < PARITY_ATOL
            np.testing.assert_allclose(part.forces, ref.forces, atol=PARITY_ATOL)

    def test_batch_membership_does_not_change_results(self, serving_model):
        """A system's numbers must not depend on its batch companions."""
        systems = _mixed_systems(serving_model)
        solo = pack_systems(serving_model, systems[:1])
        out_solo = serving_model.evaluate_many(solo.env, solo.system_of_atom, solo.offsets)
        full = pack_systems(serving_model, systems)
        out_full = serving_model.evaluate_many(full.env, full.system_of_atom, full.offsets)
        rows = full.system_slice(0)
        np.testing.assert_allclose(
            out_full.forces[rows], out_solo.forces, atol=PARITY_ATOL
        )
        assert abs(out_full.energies[0] - out_solo.energies[0]) < PARITY_ATOL

    def test_degenerate_systems_inside_a_batch(self, serving_model):
        box = Box.cubic(50.0, periodic=False)
        empty = Atoms(
            positions=np.zeros((0, 3)), types=np.zeros(0, dtype=np.int64), masses=np.zeros(0)
        )
        lone = Atoms(
            positions=np.array([[25.0, 25.0, 25.0]]),
            types=np.zeros(1, dtype=np.int64),
            masses=np.full(1, 63.546),
        )
        systems = [
            (empty, box, build_neighbor_data(empty.positions, box, serving_model.config.cutoff)),
            _mixed_systems(serving_model)[0],
            (lone, box, build_neighbor_data(lone.positions, box, serving_model.config.cutoff)),
        ]
        batch = pack_systems(serving_model, systems)
        out = serving_model.evaluate_many(batch.env, batch.system_of_atom, batch.offsets)
        reference = evaluate_serial(serving_model, systems)
        for s, ref in enumerate(reference):
            assert abs(out.energies[s] - ref.energy) < PARITY_ATOL
        parts = out.split()
        assert parts[0].forces.shape == (0, 3)
        assert parts[2].forces.shape == (1, 3)
        np.testing.assert_allclose(parts[2].forces, 0.0, atol=PARITY_ATOL)

    @pytest.mark.parametrize("width", [0, 1, 3, 32])
    @pytest.mark.filterwarnings(f"ignore:{_OVERFLOWS}:RuntimeWarning")
    def test_evaluate_batch_bits_equal_the_per_system_packing(self, serving_model, width):
        """Every served output is bit for bit the fused evaluation of the
        per-system environments, and within 1e-10 of the serial golden."""
        systems = _geometry_mix(serving_model)[:width]
        engine = ServingEngine(serving_model)
        parts = engine.evaluate_batch(systems).split()
        assert len(parts) == width
        if not width:
            return
        env, system_of_atom, offsets = _per_system_batch(serving_model, systems)
        expected = serving_model.evaluate_many(
            env, system_of_atom, offsets, compressed=True, compression_table=engine._table
        ).split()
        reference = evaluate_serial(serving_model, systems, compressed=True, compression_table=engine._table)
        for got, want, ref in zip(parts, expected, reference):
            assert got.energy == want.energy
            for name in ("per_atom_energy", "forces", "virial"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
            assert abs(got.energy - ref.energy) < PARITY_ATOL
            np.testing.assert_allclose(got.forces, ref.forces, atol=PARITY_ATOL)
            np.testing.assert_allclose(got.virial, ref.virial, atol=PARITY_ATOL)

    @pytest.mark.blas_bound
    @pytest.mark.parametrize("precision", sorted(SERVED_BATCH_SHA256))
    def test_served_batch_bits_are_pinned(self, serving_model, precision):
        """sha256 of everything evaluate_batch returns for serve_open-style
        clusters (4-12 atoms, compressed) at widths 1, 3 and 32."""
        sizes = np.random.default_rng(52).integers(4, 13, size=1 + 3 + 32)
        clusters = [prepare_system(serving_model, *_cluster(int(n), 5200 + i)) for i, n in enumerate(sizes)]
        engine = ServingEngine(serving_model, precision=precision)
        digest = hashlib.sha256()
        for lo, hi in ((0, 1), (1, 4), (4, 36)):
            out = engine.evaluate_batch(clusters[lo:hi])
            for array in (out.energies, out.forces, out.virials, out.per_atom_energy):
                digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
        assert digest.hexdigest() == SERVED_BATCH_SHA256[precision], kernel_note()

    def test_evaluate_many_validates_inputs(self, serving_model):
        systems = _mixed_systems(serving_model)
        batch = pack_systems(serving_model, systems)
        with pytest.raises(ValueError, match="system_of_atom must hold one system index per packed atom"):
            serving_model.evaluate_many(
                batch.env, batch.system_of_atom[:-1], batch.offsets
            )
        with pytest.raises(ValueError, match=r"offsets must be a \(S \+ 1,\) cumulative atom-count array"):
            serving_model.evaluate_many(
                batch.env, batch.system_of_atom, batch.offsets[:-1]
            )
        with pytest.raises(ValueError, match=r"offsets must be a \(S \+ 1,\) cumulative atom-count array"):
            serving_model.evaluate_many(batch.env, batch.system_of_atom, np.zeros(0, dtype=np.int64))


# ---------------------------------------------------------------------------
# The per-batch floor: calls made for one width-1 batch
# ---------------------------------------------------------------------------

#: Calls one warm width-1 batch makes from ``repro`` code, prepare to split
#: (see :func:`_calls_from_repro`).  The pack/evaluate path that served
#: serve_open before its per-call floor was cut made 378 + 233.
CALL_BUDGET = {"python": 171, "c": 188}


def _calls_from_repro(fn) -> dict:
    """The calls one run of ``fn`` makes from ``repro`` frames.

    ``python`` counts each Python function entered from a ``repro`` frame (a
    generator once, when first entered, not at every resumption), NumPy's
    Python-level wrappers included; ``c`` counts the C functions ``repro``
    frames call (``sys.setprofile``'s ``c_call`` events).  Both are counts of
    work, not of time, so they read the same on any host.
    """
    root = os.path.dirname(repro.__file__) + os.sep
    counts = {"python": 0, "c": 0}
    entered: list = []

    def profile(frame, event, arg):
        if event == "call":
            caller = frame.f_back
            if caller is None or not caller.f_code.co_filename.startswith(root):
                return
            if frame.f_code.co_flags & inspect.CO_GENERATOR:
                if any(seen is frame for seen in entered):
                    return
                entered.append(frame)
            counts["python"] += 1
        elif event == "c_call" and frame.f_code.co_filename.startswith(root):
            counts["c"] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


class TestPerBatchFloor:
    def test_one_width1_batch_stays_inside_its_call_budget(self, serving_model):
        """A warm serve_open-style batch of one 9-atom cluster, from
        ``prepare_system`` to ``split``, makes no more calls than budgeted."""
        atoms, box = _cluster(9, 52)
        engine = ServingEngine(serving_model)

        def batch():
            return engine.evaluate_batch([prepare_system(serving_model, atoms, box)]).split()

        batch()
        batch()  # every cache, plan and pool buffer exists from here on
        counts = _calls_from_repro(batch)
        assert counts["python"] <= CALL_BUDGET["python"] and counts["c"] <= CALL_BUDGET["c"], (
            f"one width-1 batch made {counts} calls from repro frames, budget {CALL_BUDGET}"
        )


# ---------------------------------------------------------------------------
# Admission queue: blocking admit, close() wake-up
# ---------------------------------------------------------------------------


class TestAdmissionQueue:
    def test_admit_blocks_while_idle_and_close_wakes_it_with_none(self):
        queue = AdmissionQueue(max_batch_size=4)
        admitted = []
        consumer = threading.Thread(target=lambda: admitted.append(queue.admit()))
        consumer.start()
        # an idle queue keeps the consumer parked: no empty-list wake-ups
        consumer.join(timeout=0.25)
        assert consumer.is_alive() and admitted == []
        queue.close()
        consumer.join(timeout=10)
        assert not consumer.is_alive()
        assert admitted == [None]

    def test_admit_returns_a_non_empty_batch_for_a_late_submit(self):
        queue = AdmissionQueue(max_batch_size=4)
        admitted = []
        consumer = threading.Thread(target=lambda: admitted.append(queue.admit()))
        consumer.start()
        time.sleep(0.1)  # the consumer is blocked in admit() by now
        request = ServingRequest(kind="energy", atoms=None, box=None)
        queue.submit(request)
        consumer.join(timeout=10)
        assert not consumer.is_alive()
        assert admitted == [[request]]

    def test_admit_returns_the_pending_prefix_at_once(self):
        # no window: three pending requests are a batch, although four would fit
        queue = AdmissionQueue(max_batch_size=4)
        requests = [ServingRequest(kind="energy", atoms=None, box=None) for _ in range(3)]
        for request in requests:
            queue.submit(request)
        admitted = []
        consumer = threading.Thread(target=lambda: admitted.append(queue.admit()))
        consumer.start()
        consumer.join(timeout=10)
        assert not consumer.is_alive()
        assert admitted == [requests]
        assert all(request.t_admit >= request.t_submit for request in requests)
        with pytest.raises(ValueError, match="max_batch_size must be >= 1"):
            AdmissionQueue(max_batch_size=0)

    def test_energy_and_md_requests_batch_apart(self):
        queue = AdmissionQueue(max_batch_size=8)
        kinds = ("energy", "energy", "md", "md", "md", "energy")
        requests = [ServingRequest(kind=kind, atoms=None, box=None) for kind in kinds]
        for request in requests:
            queue.submit(request)
        queue.close()
        assert queue.admit() == requests[:2]
        assert queue.admit() == requests[2:5]
        assert queue.admit() == requests[5:]
        assert queue.admit() is None

    def test_closed_queue_drains_before_reporting_none(self):
        queue = AdmissionQueue(max_batch_size=2)
        requests = [ServingRequest(kind="energy", atoms=None, box=None) for _ in range(3)]
        for request in requests:
            queue.submit(request)
        queue.close()
        assert queue.admit() == requests[:2]
        assert queue.admit() == requests[2:]
        assert queue.admit() is None


# ---------------------------------------------------------------------------
# Engine: admission batching, the serving thread, MD bursts
# ---------------------------------------------------------------------------

#: sha256 over the final positions, velocities and forces and the per-step
#: energies of one mixed-``n_steps`` burst batch (compressed), recorded when
#: served MD still ran on a hand-written lockstep loop.
BURST_BATCH_SHA256 = {
    "double": "b595e66f88cb9fd47c253a663fcc9c6f9df3d6b7c7c0fbe1e551094c4d964e02",
    "mix-fp32": "d17a6247b9765466ec90ba9d260728963332d8a783890c2b16ecc3fae69b918f",
}


class TestServingStats:
    def test_stored_latencies_stay_bounded_and_means_stay_exact(self):
        from types import SimpleNamespace

        from repro.serving.queue import LATENCY_WINDOW, ServingStats

        stats = ServingStats()
        assert stats.latency_ms()["p50"] == 0.0 and stats.mean_batch_size() == 0.0
        rng = np.random.default_rng(5)
        widths, waits, services = [], [], []
        # a window's worth of slow requests (10 s), then a window's worth of fast ones (1 s)
        for t_done in (10.0, 1.0):
            recorded = 0
            while recorded < LATENCY_WINDOW:
                admits = rng.uniform(0.0, t_done, rng.integers(1, 33))
                batch = [SimpleNamespace(t_submit=0.0, t_admit=w) for w in admits]
                stats.record_batch(batch, t_done)
                recorded += len(batch)
                widths.append(len(batch))
                waits += [r.t_admit for r in batch]
                services += [t_done - r.t_admit for r in batch]
        assert len(stats._recent_total_s) == LATENCY_WINDOW
        latency = stats.latency_ms()
        # the percentiles cover the recent window, which holds fast requests only
        assert latency["p50"] == latency["p99"] == 1.0e3
        # the means cover the whole run
        assert latency["mean"] == pytest.approx(float(np.mean(np.add(waits, services))) * 1e3, rel=1e-12)
        assert latency["wait_mean"] == pytest.approx(float(np.mean(waits)) * 1e3, rel=1e-12)
        assert latency["service_mean"] == pytest.approx(float(np.mean(services)) * 1e3, rel=1e-12)
        assert stats.mean_batch_size() == float(np.mean(widths))
        assert (stats.n_batches, stats.n_requests) == (len(widths), sum(widths))


class TestServingEngine:
    def test_one_shot_requests_match_serial_reference(self, serving_model):
        systems = _mixed_systems(serving_model)
        table = serving_model.compressed_embeddings()
        reference = evaluate_serial(
            serving_model, systems, compressed=True, compression_table=table
        )
        with ServingEngine(serving_model, max_batch_size=8) as engine:
            futures = [engine.submit(atoms, box) for atoms, box, _ in systems]
            results = [future.result(timeout=60) for future in futures]
        for got, ref in zip(results, reference):
            assert abs(got.energy - ref.energy) < PARITY_ATOL
            np.testing.assert_allclose(got.forces, ref.forces, atol=PARITY_ATOL)
            np.testing.assert_allclose(got.virial, ref.virial, atol=PARITY_ATOL)

    def test_requests_pending_when_the_loop_admits_form_one_batch(self, serving_model):
        systems = _mixed_systems(serving_model) * 4  # 16 requests
        engine = ServingEngine(serving_model, max_batch_size=16)
        # submitted before the serving thread starts: all 16 are pending at its first admit
        futures = [engine.submit(atoms, box) for atoms, box, _ in systems]
        with engine:
            for future in futures:
                future.result(timeout=60)
            stats = engine.stats
            assert (stats.n_batches, stats.n_requests) == (1, len(systems))
            latency = stats.latency_ms()
            assert latency["p99"] >= latency["p50"] > 0.0

    def test_deprecated_max_wait_ms_warns_once_and_leaves_batches_unchanged(self, serving_model):
        systems = _mixed_systems(serving_model) * 2  # 8 requests: batches of 3, 3 and 2
        runs = []
        for keywords in ({}, {"max_wait_ms": 2.0}):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                engine = ServingEngine(serving_model, max_batch_size=3, **keywords)
            assert [(w.category, w.filename) for w in caught] == (
                [(DeprecationWarning, __file__)] if keywords else []
            )
            futures = [engine.submit(atoms, box) for atoms, box, _ in systems]
            with engine:
                outputs = [future.result(timeout=60) for future in futures]
            runs.append((engine.stats.n_batches, outputs))
        (batches, plain), (shim_batches, shimmed) = runs
        assert batches == shim_batches == 3
        for got, ref in zip(shimmed, plain):
            assert got.energy == ref.energy
            np.testing.assert_array_equal(got.forces, ref.forces)
            np.testing.assert_array_equal(got.virial, ref.virial)

    # mixed: bursts leave the lockstep group early, and an n_steps == 0 burst
    # is only evaluated
    @pytest.mark.parametrize("steps", [(3, 3, 3), (0, 1, 3, 5)], ids=["uniform", "mixed"])
    def test_md_bursts_match_serial_reference(self, serving_model, steps):
        systems = _mixed_systems(serving_model, sizes=(6, 9, 4, 8)[: len(steps)])
        bursts = [(atoms, box, n, 0.5) for (atoms, box, _), n in zip(systems, steps)]
        table = serving_model.compressed_embeddings()
        reference = run_bursts_serial(
            serving_model, bursts, compressed=True, compression_table=table
        )
        with ServingEngine(serving_model, max_batch_size=8) as engine:
            futures = [engine.submit_md(atoms, box, n, 0.5) for atoms, box, n, _ in bursts]
            results = [future.result(timeout=120) for future in futures]
        for got, n, (ref_atoms, ref_energies) in zip(results, steps, reference):
            assert got.n_steps == n and got.energies.shape == (n,)
            np.testing.assert_allclose(got.atoms.positions, ref_atoms.positions, atol=PARITY_ATOL)
            np.testing.assert_allclose(got.atoms.velocities, ref_atoms.velocities, atol=PARITY_ATOL)
            np.testing.assert_allclose(got.energies, ref_energies, atol=PARITY_ATOL)

    @pytest.mark.blas_bound
    @pytest.mark.parametrize("precision", sorted(BURST_BATCH_SHA256))
    def test_mixed_burst_batch_bits_are_pinned(self, serving_model, precision):
        steps = (0, 1, 3, 5, 5, 2)
        bursts = []
        for i, (n_atoms, n) in enumerate(zip((6, 9, 4, 8, 7, 5), steps)):
            atoms, box = _cluster(n_atoms, 50 + i)
            atoms.velocities[:] = np.random.default_rng(90 + i).normal(scale=0.01, size=(n_atoms, 3))
            bursts.append((atoms, box, n))
        engine = ServingEngine(serving_model, precision=precision, max_batch_size=len(steps))
        futures = [engine.submit_md(atoms, box, n, 0.5) for atoms, box, n in bursts]  # pending at the first admit
        with engine:
            results = [future.result(timeout=120) for future in futures]
        assert engine.stats.n_batches == 1
        assert [got.n_steps for got in results] == list(steps)
        digest = hashlib.sha256()
        for got in results:
            for array in (got.atoms.positions, got.atoms.velocities, got.atoms.forces, got.energies):
                digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
        assert digest.hexdigest() == BURST_BATCH_SHA256[precision], kernel_note()

    @pytest.mark.parametrize("path", ["submit", "submit_md", "evaluate_batch"])
    def test_neighbor_budget_overflow_warns_once_per_engine(self, serving_model, path):
        """A request with more in-cutoff neighbours than max_neighbors is truncated: say so, once."""
        dense = _geometry_mix(serving_model)[1]
        engine = ServingEngine(serving_model, max_batch_size=1)
        serve = {
            "submit": lambda: engine.submit(*dense[:2]).result(timeout=60),
            "submit_md": lambda: engine.submit_md(*dense[:2], 2, 0.5).result(timeout=60),
            "evaluate_batch": lambda: engine.evaluate_batch([dense]),
        }[path]
        with engine, pytest.warns(AccuracyWarning, match=_OVERFLOWS) as caught:
            serve()
            serve()
        assert len(caught) == 1
        quiet = ServingEngine(serving_model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quiet.evaluate_batch(_mixed_systems(serving_model))

    @pytest.mark.parametrize("path", ["submit", "submit_md", "evaluate_batch"])
    def test_table_clamp_warns_once_per_engine(self, serving_model, path):
        """A pair inside compression_min_distance is served on a clamped table: say so, once."""
        atoms = _copper(np.array([[5.0, 5.0, 5.0], [5.3, 5.0, 5.0], [7.5, 5.0, 5.0]]))  # a 0.3 A pair
        box = Box.cubic(40.0, periodic=False)
        engine = ServingEngine(serving_model, max_batch_size=1)
        serve = {
            "submit": lambda: engine.submit(atoms, box).result(timeout=60),
            "submit_md": lambda: engine.submit_md(atoms, box, 2, 0.5).result(timeout=60),
            "evaluate_batch": lambda: engine.evaluate_batch([prepare_system(serving_model, atoms, box)]),
        }[path]
        with engine, pytest.warns(AccuracyWarning, match=r"closer than compression_min_distance=0\.5 A") as caught:
            serve()
            serve()
        assert len(caught) == 1
        # the exact nets have no table to clamp
        exact = ServingEngine(serving_model, compressed=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact.evaluate_batch([prepare_system(serving_model, atoms, box)])

    def test_request_cancelled_before_admission_is_dropped(self, serving_model):
        systems = _mixed_systems(serving_model, sizes=(6, 9, 8))
        reference = evaluate_serial(
            serving_model,
            [systems[0], systems[2]],
            compressed=True,
            compression_table=serving_model.compressed_embeddings(),
        )
        # queued before the serving thread starts, so the cancel lands before admission
        engine = ServingEngine(serving_model, max_batch_size=3)
        first = engine.submit(*systems[0][:2])
        dropped = engine.submit(*systems[1][:2])
        assert dropped.cancel()
        last = engine.submit(*systems[2][:2])
        with engine:
            results = [first.result(timeout=60), last.result(timeout=60)]
            assert dropped.cancelled()
            with pytest.raises(CancelledError):
                dropped.result(timeout=0)
            assert engine.stats.n_requests == 2
        for got, ref in zip(results, reference):
            assert abs(got.energy - ref.energy) < PARITY_ATOL
            np.testing.assert_allclose(got.forces, ref.forces, atol=PARITY_ATOL)

    def test_failed_request_raises_through_its_future(self, serving_model):
        bad = Atoms(
            positions=np.array([[1.0, 1.0, 1.0]]),
            types=np.zeros(1, dtype=np.int64),
            masses=np.ones(1),
        )
        good = _mixed_systems(serving_model)[0]
        with ServingEngine(serving_model, max_batch_size=1) as engine:
            # admissible at submit, but the model cutoff exceeds this periodic
            # box's minimum image, so the neighbour build fails in the loop
            bad_future = engine.submit(bad, Box.cubic(6.0))
            good_future = engine.submit(good[0], good[1])
            with pytest.raises(ValueError, match="minimum-image"):
                bad_future.result(timeout=60)
            # a poisoned batch must not take the engine down with it
            assert good_future.result(timeout=60).forces.shape == (len(good[0]), 3)

    def test_any_other_exception_fails_its_whole_batch_and_the_engine_serves_on(self, serving_model):
        systems = _mixed_systems(serving_model)
        engine = ServingEngine(serving_model, max_batch_size=8)
        injected = RuntimeError("injected evaluation failure")
        evaluate_batch = engine.evaluate_batch
        calls = []

        def fail_first_batch(batch_systems, workspace=None):
            calls.append(len(batch_systems))
            if len(calls) == 1:
                raise injected
            return evaluate_batch(batch_systems, workspace=workspace)

        engine.evaluate_batch = fail_first_batch
        # submitted before the serving thread starts: one batch of all four
        doomed = [engine.submit(atoms, box) for atoms, box, _ in systems]
        with engine:
            for future in doomed:
                assert future.exception(timeout=60) is injected
            atoms, box, _ = systems[0]
            later = engine.submit(atoms, box).result(timeout=60)
        assert calls == [len(systems), 1]
        reference = evaluate_serial(serving_model, systems[:1], compressed=True)[0]
        assert abs(later.energy - reference.energy) < PARITY_ATOL

    def test_start_adds_exactly_one_thread(self, serving_model):
        before = {thread.name for thread in threading.enumerate()}
        engine = ServingEngine(serving_model)
        assert {thread.name for thread in threading.enumerate()} == before
        with engine:
            engine.start()  # idempotent
            added = [t.name for t in threading.enumerate() if t.name not in before]
            assert added == ["serving-loop"]
        assert {thread.name for thread in threading.enumerate()} == before

    def test_stop_on_an_idle_engine_joins(self, serving_model):
        engine = ServingEngine(serving_model).start()
        stopper = threading.Thread(target=engine.stop)
        stopper.start()
        stopper.join(timeout=10)
        assert not stopper.is_alive()
        assert "serving-loop" not in {thread.name for thread in threading.enumerate()}

    def test_stop_fulfils_every_pending_request_first(self, serving_model):
        systems = _mixed_systems(serving_model) * 3
        reference = evaluate_serial(
            serving_model,
            systems,
            compressed=True,
            compression_table=serving_model.compressed_embeddings(),
        )
        # three batches' worth queued before start(): stop() lands while some are pending
        engine = ServingEngine(serving_model, max_batch_size=4)
        futures = [engine.submit(atoms, box) for atoms, box, _ in systems]
        engine.start().stop()
        assert all(future.done() for future in futures)
        for future, ref in zip(futures, reference):
            np.testing.assert_allclose(future.result(timeout=0).forces, ref.forces, atol=PARITY_ATOL)

    def test_evaluate_batch_does_not_alias_batches_in_flight(self, serving_model):
        """Synchronous ``evaluate_batch`` calls from the client thread while
        the serving thread works through 200 one-shots: neither side may see
        the other's buffers (regression: both packed into one scope)."""
        table = serving_model.compressed_embeddings()
        served = [prepare_system(serving_model, *_cluster(4 + i % 6, 300 + i)) for i in range(200)]
        direct = _mixed_systems(serving_model, sizes=(5, 9, 7), rng0=700)
        served_ref = evaluate_serial(serving_model, served, compressed=True, compression_table=table)
        direct_ref = evaluate_serial(serving_model, direct, compressed=True, compression_table=table)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over mid-evaluation as often as possible
        try:
            with ServingEngine(serving_model, max_batch_size=8) as engine:
                futures = [engine.submit(atoms, box) for atoms, box, _ in served]
                sync_calls = 0
                while sync_calls < 20 or not all(future.done() for future in futures):
                    outputs = engine.evaluate_batch(direct).split()
                    sync_calls += 1
                    for got, ref in zip(outputs, direct_ref):
                        assert abs(got.energy - ref.energy) < PARITY_ATOL
                        np.testing.assert_allclose(got.forces, ref.forces, atol=PARITY_ATOL)
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, ref in zip(results, served_ref):
            assert abs(got.energy - ref.energy) < PARITY_ATOL
            np.testing.assert_allclose(got.forces, ref.forces, atol=PARITY_ATOL)

    def test_submitted_atoms_are_snapshotted(self, serving_model):
        atoms, box, _ = _mixed_systems(serving_model)[0]
        with ServingEngine(serving_model, max_batch_size=1) as engine:
            future = engine.submit(atoms, box)
            atoms.positions[:] = 0.0  # client mutates after submit
            out = future.result(timeout=60)
        assert np.abs(out.forces).max() > 0.0  # evaluated the snapshot, not the zeros


_OUTSIDE_TYPES = "request has atom types outside the model's 1-type space"

#: inadmissible requests: case -> (attribute, index, value, expected message)
POISON = {
    "nan position": ("positions", (1, 2), np.nan, "position row 1 is not finite"),
    "inf position": ("positions", (2, 0), np.inf, "position row 2 is not finite"),
    "nan velocity": ("velocities", (1, 1), np.nan, "velocity row 1 is not finite"),
    "inf velocity": ("velocities", (3, 0), -np.inf, "velocity row 3 is not finite"),
    "outside the open box": ("positions", (2, 2), 45.0, "position row 2 is outside the open box along z"),
    "negative type": ("types", 0, -1, _OUTSIDE_TYPES),
    "unknown type": ("types", 0, 1, _OUTSIDE_TYPES),  # the fixture model has one type
}


def _poison(atoms, case):
    """A copy of ``atoms`` made inadmissible as ``case`` says, and the message it must raise."""
    attribute, index, value, message = POISON[case]
    bad = atoms.copy()
    getattr(bad, attribute)[index] = value
    return bad, message


class TestSubmitValidation:
    """A bad request fails alone, in the caller's thread, before it is queued."""

    def test_nan_request_fails_at_submit_and_its_batch_mates_are_served(self, serving_model):
        systems = _mixed_systems(serving_model, sizes=(6, 9, 8))
        reference = evaluate_serial(
            serving_model,
            [systems[0], systems[2]],
            compressed=True,
            compression_table=serving_model.compressed_embeddings(),
        )
        nan_atoms, message = _poison(systems[1][0], "nan position")
        # queued before start(): the survivors share one batch
        engine = ServingEngine(serving_model, max_batch_size=8)
        first = engine.submit(*systems[0][:2])
        with pytest.raises(ValueError, match=message):
            engine.submit(nan_atoms, systems[1][1])
        last = engine.submit(*systems[2][:2])
        with engine:
            results = [first.result(timeout=60), last.result(timeout=60)]
            # the engine keeps serving after the rejection
            again = engine.submit(*systems[1][:2]).result(timeout=60)
            assert (engine.stats.n_batches, engine.stats.n_requests) == (2, 3)
        for got, ref in zip(results, reference):
            assert abs(got.energy - ref.energy) < PARITY_ATOL
            np.testing.assert_allclose(got.forces, ref.forces, atol=PARITY_ATOL)
            np.testing.assert_allclose(got.virial, ref.virial, atol=PARITY_ATOL)
        assert np.isfinite(again.forces).all()

    @pytest.mark.parametrize("case", ["inf position", "outside the open box", "negative type", "unknown type"])
    def test_submit_rejects(self, serving_model, case):
        atoms, box, _ = _mixed_systems(serving_model)[0]
        bad, message = _poison(atoms, case)
        with ServingEngine(serving_model) as engine:
            with pytest.raises(ValueError, match=message):
                engine.submit(bad, box)
        assert engine.stats.n_requests == 0

    @pytest.mark.parametrize(
        "n_steps, timestep_fs, message",
        [
            (-2, 0.5, "n_steps must be an integer >= 0"),
            (2.5, 0.5, "n_steps must be an integer >= 0"),
            (3, 0.0, "timestep_fs must be finite and > 0"),
            (3, -0.5, "timestep_fs must be finite and > 0"),
            (3, np.nan, "timestep_fs must be finite and > 0"),
            (3, np.inf, "timestep_fs must be finite and > 0"),
        ],
    )
    def test_submit_md_rejects_bad_step_arguments(self, serving_model, n_steps, timestep_fs, message):
        atoms, box, _ = _mixed_systems(serving_model)[0]
        with ServingEngine(serving_model) as engine:
            with pytest.raises(ValueError, match=message):
                engine.submit_md(atoms, box, n_steps, timestep_fs)
        assert engine.stats.n_requests == 0

    def test_bad_timestep_fails_at_submit_and_its_batch_mates_are_served(self, serving_model):
        systems = _mixed_systems(serving_model, sizes=(6, 9, 8))
        reference = run_bursts_serial(
            serving_model,
            [(atoms, box, 2, 0.5) for atoms, box, _ in (systems[0], systems[2])],
            compressed=True,
            compression_table=serving_model.compressed_embeddings(),
        )
        # queued before start(): the survivors share one batch
        engine = ServingEngine(serving_model, max_batch_size=8)
        first = engine.submit_md(*systems[0][:2], 2, 0.5)
        with pytest.raises(ValueError, match="timestep_fs"):
            engine.submit_md(*systems[1][:2], 2, 0.0)
        last = engine.submit_md(*systems[2][:2], 2, 0.5)
        with engine:
            results = [first.result(timeout=60), last.result(timeout=60)]
            assert (engine.stats.n_batches, engine.stats.n_requests) == (1, 2)
        for got, (ref_atoms, ref_energies) in zip(results, reference):
            np.testing.assert_allclose(got.atoms.positions, ref_atoms.positions, atol=PARITY_ATOL)
            np.testing.assert_allclose(got.energies, ref_energies, atol=PARITY_ATOL)

    @pytest.mark.parametrize(
        "case", ["nan position", "nan velocity", "inf velocity", "outside the open box", "unknown type"]
    )
    def test_submit_md_rejects(self, serving_model, case):
        atoms, box, _ = _mixed_systems(serving_model)[0]
        bad, message = _poison(atoms, case)
        with ServingEngine(serving_model) as engine:
            with pytest.raises(ValueError, match=message):
                engine.submit_md(bad, box, 3, 0.5)
        assert engine.stats.n_requests == 0


def _coincident_atoms():
    atoms, box = _cluster(5, 80)
    atoms.positions[1] = atoms.positions[0]
    return atoms, box, "position rows 0 and 1 coincide"


def _box_shorter_than_the_cutoff():
    atoms = Atoms(
        positions=np.array([[1.0, 1.0, 1.0]]), types=np.zeros(1, dtype=np.int64), masses=np.full(1, 63.546)
    )
    # periodic: the 4.5 A model cutoff exceeds this box's 3 A minimum image
    return atoms, Box.cubic(6.0), "minimum-image"


#: admissible at submit, refused by the neighbour build at admission
BAD_GEOMETRY = {"coincident atoms": _coincident_atoms, "box shorter than the cutoff": _box_shorter_than_the_cutoff}


class TestBadGeometryFailsAlone:
    """Good + bad + good in one batch: the bad request fails on its own future."""

    @pytest.mark.parametrize("bad", sorted(BAD_GEOMETRY))
    def test_one_shot(self, serving_model, bad):
        systems = _mixed_systems(serving_model, sizes=(6, 9))
        reference = evaluate_serial(
            serving_model, systems, compressed=True, compression_table=serving_model.compressed_embeddings()
        )
        bad_atoms, bad_box, message = BAD_GEOMETRY[bad]()
        engine = ServingEngine(serving_model, max_batch_size=3)
        first = engine.submit(*systems[0][:2])
        middle = engine.submit(bad_atoms, bad_box)
        last = engine.submit(*systems[1][:2])
        with engine:
            with pytest.raises(ValueError, match=message):
                middle.result(timeout=60)
            results = [first.result(timeout=60), last.result(timeout=60)]
            assert (engine.stats.n_batches, engine.stats.n_requests) == (1, 2)
        for got, ref in zip(results, reference):
            assert abs(got.energy - ref.energy) < PARITY_ATOL
            np.testing.assert_allclose(got.forces, ref.forces, atol=PARITY_ATOL)
            np.testing.assert_allclose(got.virial, ref.virial, atol=PARITY_ATOL)

    @pytest.mark.parametrize("bad", sorted(BAD_GEOMETRY))
    def test_md_burst(self, serving_model, bad):
        systems = _mixed_systems(serving_model, sizes=(6, 9))
        reference = run_bursts_serial(
            serving_model,
            [(atoms, box, 2, 0.5) for atoms, box, _ in systems],
            compressed=True,
            compression_table=serving_model.compressed_embeddings(),
        )
        bad_atoms, bad_box, message = BAD_GEOMETRY[bad]()
        engine = ServingEngine(serving_model, max_batch_size=3)
        first = engine.submit_md(*systems[0][:2], 2, 0.5)
        middle = engine.submit_md(bad_atoms, bad_box, 2, 0.5)
        last = engine.submit_md(*systems[1][:2], 2, 0.5)
        with engine:
            with pytest.raises(ValueError, match=message):
                middle.result(timeout=60)
            results = [first.result(timeout=60), last.result(timeout=60)]
            assert (engine.stats.n_batches, engine.stats.n_requests) == (1, 2)
        for got, (ref_atoms, ref_energies) in zip(results, reference):
            np.testing.assert_allclose(got.atoms.positions, ref_atoms.positions, atol=PARITY_ATOL)
            np.testing.assert_allclose(got.atoms.velocities, ref_atoms.velocities, atol=PARITY_ATOL)
            np.testing.assert_allclose(got.energies, ref_energies, atol=PARITY_ATOL)


# ---------------------------------------------------------------------------
# Cross-request cache reuse (the per-model caches are built once)
# ---------------------------------------------------------------------------


class TestCacheReuse:
    def test_compression_table_built_once_across_requests(self):
        config = DeepPotentialConfig(
            type_names=("Cu",),
            cutoff=4.5,
            cutoff_smooth=3.5,
            embedding_sizes=(6, 12),
            axis_neurons=4,
            fitting_sizes=(16, 16),
            max_neighbors=16,
            seed=11,
        )
        model = DeepPotential(config)
        assert model.table_cache_builds == 0
        with ServingEngine(model, max_batch_size=4) as engine:
            for wave in range(3):
                futures = [
                    engine.submit(*_cluster(6, 70 + 10 * wave + i)) for i in range(4)
                ]
                for future in futures:
                    future.result(timeout=60)
            probe = engine.cache_probe()
        assert probe["table_cache_builds"] == 1
        # fp64 policy: no packed low-precision copy, no lp layer caches
        assert probe["packed_cache_builds"] == 0
        assert probe["lp_cache_builds"] == 0

    def test_packed_table_and_standardization_cached_across_requests(self):
        config = DeepPotentialConfig(
            type_names=("Cu",),
            cutoff=4.5,
            cutoff_smooth=3.5,
            embedding_sizes=(6, 12),
            axis_neurons=4,
            fitting_sizes=(16, 16),
            max_neighbors=16,
            seed=12,
        )
        model = DeepPotential(config)
        with ServingEngine(model, precision=MIX_FP32, max_batch_size=4) as engine:
            first = None
            for wave in range(3):
                futures = [
                    engine.submit(*_cluster(6, 90 + 10 * wave + i)) for i in range(4)
                ]
                for future in futures:
                    future.result(timeout=60)
                probe = engine.cache_probe()
                if first is None:
                    first = probe
                # nothing is rebuilt by later waves
                assert probe == first
        assert first["table_cache_builds"] == 1
        assert first["packed_cache_builds"] == 1
        assert first["standardization_entries"] >= 1

    def test_two_engines_on_one_model_share_the_table(self, serving_model):
        table_ids = []
        for _ in range(2):
            with ServingEngine(serving_model, max_batch_size=2) as engine:
                engine.submit(*_cluster(6, 123)).result(timeout=60)
                table_ids.append(engine.cache_probe()["table_id"])
        assert table_ids[0] == table_ids[1]
        assert serving_model.table_cache_builds == 1


# ---------------------------------------------------------------------------
# Stress tier (slow): concurrent clients, mixed request kinds
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_serving_stress_concurrent_mixed_clients(serving_model):
    """Many client threads hammer the engine with mixed one-shots and bursts."""
    n_clients = 8
    requests_per_client = 6
    table = serving_model.compressed_embeddings()
    errors = []
    checked = []

    def client(cid: int):
        try:
            with_engine(cid)
        except Exception as exc:  # pragma: no cover - surfaced via the errors list
            errors.append((cid, exc))

    def with_engine(cid: int):
        for k in range(requests_per_client):
            atoms, box = _cluster(4 + (cid + k) % 6, 1000 + 97 * cid + k)
            if (cid + k) % 3 == 0:
                future = engine.submit_md(atoms, box, 2, 0.5)
                result = future.result(timeout=300)
                assert result.energies.shape == (2,)
            else:
                future = engine.submit(atoms, box)
                out = future.result(timeout=300)
                neighbors = build_neighbor_data(
                    atoms.positions, box, serving_model.config.cutoff
                )
                ref = serving_model.evaluate(
                    atoms, box, neighbors, compressed=True, compression_table=table
                )
                np.testing.assert_allclose(out.forces, ref.forces, atol=PARITY_ATOL)
                assert abs(out.energy - ref.energy) < PARITY_ATOL
                checked.append(1)

    with ServingEngine(serving_model, max_batch_size=16) as engine:
        threads = [threading.Thread(target=client, args=(cid,)) for cid in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = engine.stats
    assert errors == []
    assert stats.n_requests == n_clients * requests_per_client
    assert len(checked) > 0
    assert serving_model.table_cache_builds == 1
