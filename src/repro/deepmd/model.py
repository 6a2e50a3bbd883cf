"""The Deep Potential model: energies and analytic forces.

:class:`DeepPotential` combines the environment matrix, the embedding and
fitting networks, descriptor standardization and per-type energy shifts into
an interatomic potential with one evaluator in two batch shapes:
:meth:`~DeepPotential.evaluate` (one system) and
:meth:`~DeepPotential.evaluate_many` (a packed multi-system batch), both over
the same per-type kernel.  This is the **framework-free** path the paper
ships (§III-B.1): all kernels are hand-written NumPy (forward + analytic
backward), matrix products run through a
:class:`~repro.deepmd.gemm.GemmBackend` (NN products on pre-transposed
weights), the precision policy selects fp64/fp32/fp16 per
component, and the embedding nets can be replaced by the compressed
(tabulated) variant.

A model is frozen: its networks are read-only :class:`FastMLP` kernels, drawn
at construction or handed in as data (:meth:`DeepPotential.from_weights`, what
:mod:`repro.training` returns).

The per-atom scalar golden and the framework (one session run per evaluation)
baseline it is pinned and priced against are functions of
:mod:`repro.reference`, which this package never imports; they reuse the
geometric force chain below, so path equivalence stays testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ..md.atoms import Atoms
from ..md.box import Box
from ..md.neighbor import NeighborData
from ..md.workspace import UNPOOLED, scatter_add_vectors
from ..utils.rng import default_rng
from .compression import TabulatedEmbeddingSet, centre_block
from .descriptor import raw_descriptors
from .envmat import LocalEnvironment, build_local_environment
from .gemm import GemmBackend
from .networks import FastMLP, init_nets
from .precision import DOUBLE, PrecisionPolicy, get_policy


#: The flat index ``3 * a + b`` of each virial component ``(a, b)``.
_VIRIAL_COMPONENTS = np.arange(9)


@dataclass
class DeepPotentialConfig:
    """Hyper-parameters of a Deep Potential model.

    Defaults follow the paper's benchmark configuration (fitting net
    (240, 240, 240)); tests and examples use smaller networks for speed.
    ``embedding_sizes`` needs at least one layer (its last entry is the
    descriptor's feature width M); ``fitting_sizes=()`` is allowed and means a
    linear fitting net — the output layer alone.
    """

    type_names: tuple[str, ...]
    cutoff: float
    cutoff_smooth: float | None = None
    embedding_sizes: tuple[int, ...] = (25, 50, 100)
    axis_neurons: int = 16
    fitting_sizes: tuple[int, ...] = (240, 240, 240)
    max_neighbors: int = 128
    seed: int | None = None

    def __post_init__(self) -> None:
        self.type_names = tuple(self.type_names)
        if not self.type_names:
            raise ValueError("need at least one atom type")
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if self.cutoff_smooth is None:
            self.cutoff_smooth = max(self.cutoff - 1.0, 0.5 * self.cutoff)
        if not 0 < self.cutoff_smooth < self.cutoff:
            raise ValueError("require 0 < cutoff_smooth < cutoff")
        if not self.embedding_sizes:
            raise ValueError("embedding_sizes needs at least one layer")
        for name in ("embedding_sizes", "fitting_sizes"):
            if any(size < 1 for size in getattr(self, name)):
                raise ValueError(f"{name} must be positive layer widths")
        if self.axis_neurons < 1:
            raise ValueError("axis_neurons must be at least 1")
        if self.axis_neurons > self.embedding_sizes[-1]:
            raise ValueError("axis_neurons cannot exceed the embedding width")
        if self.max_neighbors < 1:
            raise ValueError("max_neighbors must be positive")

    @property
    def n_types(self) -> int:
        return len(self.type_names)

    @property
    def descriptor_dim(self) -> int:
        return self.embedding_sizes[-1] * self.axis_neurons


@dataclass
class ModelOutput:
    """Energies and forces from one model evaluation.

    Shapes are well-formed for every system size, including the degenerate
    ones serving traffic produces: a 0-atom system yields ``energy == 0.0``,
    a ``(0,)`` per-atom energy array, ``(0, 3)`` forces and a zero ``(3, 3)``
    virial — never ``None``-shaped or scalar-collapsed arrays.
    """

    energy: float
    per_atom_energy: np.ndarray
    forces: np.ndarray
    precision: str
    used_framework: bool = False
    virial: np.ndarray | None = None


@dataclass
class BatchModelOutput:
    """Per-system energies/forces/virials from one fused multi-system evaluation.

    Produced by :meth:`DeepPotential.evaluate_many`: atoms of all systems are
    concatenated, so ``per_atom_energy``/``forces`` are global ``(n_total,)``
    and ``(n_total, 3)`` arrays while ``energies``/``virials`` carry one entry
    per system (fixed-order ``bincount`` segment reductions, always float64).
    With a workspace the arrays alias pool buffers valid until the next
    evaluation; :meth:`split` copies them out into per-system
    :class:`ModelOutput` objects.
    """

    energies: np.ndarray  # (S,)
    per_atom_energy: np.ndarray  # (n_total,)
    forces: np.ndarray  # (n_total, 3)
    virials: np.ndarray  # (S, 3, 3)
    offsets: np.ndarray  # (S + 1,) atom offsets of each system
    precision: str

    @property
    def n_systems(self) -> int:
        return len(self.energies)

    def split(self) -> list[ModelOutput]:
        """Freshly owned per-system outputs (not a hot path — copies)."""
        outputs = []
        for s in range(self.n_systems):
            lo, hi = int(self.offsets[s]), int(self.offsets[s + 1])
            outputs.append(
                ModelOutput(
                    energy=float(self.energies[s]),
                    per_atom_energy=self.per_atom_energy[lo:hi].copy(),
                    forces=self.forces[lo:hi].copy(),
                    precision=self.precision,
                    used_framework=False,
                    virial=self.virials[s].copy(),
                )
            )
        return outputs


class DeepPotential:
    """A frozen Deep Potential model; evaluation is reentrant.

    The networks — one embedding net per (centre, neighbour) type pair, one
    fitting net per centre type — are held once and never rebound, so a table
    or kernel taken from a model stays current; only the calibration constants
    (descriptor statistics, energy bias) can be set after construction.

    :meth:`evaluate`/:meth:`evaluate_many` write nothing to the model or its
    nets except the idempotent lazily-built caches (``FastMLP.operands``,
    :meth:`_standardization`, the compressed table): every forward tape is a
    local of the call, so threads may evaluate through one model
    concurrently, each with its own workspace.  The counters (``GemmStats``,
    ``eval_dtype_counts``, ``lp_cache_builds``) are diagnostics — exact only
    when one thread evaluates.
    """

    def __init__(self, config: DeepPotentialConfig) -> None:
        """An untrained model: every net drawn from ``config.seed``'s one stream."""
        rng = default_rng(config.seed)
        types = range(config.n_types)
        embeddings = init_nets(product(types, types), 1, config.embedding_sizes, rng=rng)
        fittings = init_nets(types, config.descriptor_dim, config.fitting_sizes, 1, rng=rng)
        self._assemble(config, embeddings, fittings)

    @classmethod
    def from_weights(
        cls,
        config: DeepPotentialConfig,
        embedding_nets: dict[tuple[int, int], FastMLP],
        fitting_nets: dict[int, FastMLP],
        descriptor_mean: np.ndarray,
        descriptor_std: np.ndarray,
        energy_bias: np.ndarray,
    ) -> "DeepPotential":
        """A model over existing kernels and calibration constants (nothing is drawn)."""
        types = range(config.n_types)
        for name, nets, keys, ends in (
            ("embedding_nets", embedding_nets, set(product(types, types)), (1, config.embedding_sizes[-1])),
            ("fitting_nets", fitting_nets, set(types), (config.descriptor_dim, 1)),
        ):
            if set(nets) != keys or any((net.in_features, net.out_features) != ends for net in nets.values()):
                raise ValueError(f"{name} must hold one {ends[0]} -> {ends[1]} net per key of {sorted(keys)}")
        model = cls.__new__(cls)
        model._assemble(config, dict(embedding_nets), dict(fitting_nets))
        model.set_descriptor_stats(descriptor_mean, descriptor_std)
        model.set_energy_bias(energy_bias)
        return model

    def _assemble(self, config, embeddings, fittings) -> None:
        self.config = config
        self._embeddings = embeddings
        self._fittings = fittings
        dim = config.descriptor_dim
        self.descriptor_mean = np.zeros((config.n_types, dim))
        self.descriptor_std = np.ones((config.n_types, dim))
        self.energy_bias = np.zeros(config.n_types)
        self._compressed: TabulatedEmbeddingSet | None = None
        self._compressed_key: tuple[int, float] | None = None
        #: once-cast low-precision descriptor mean/std per (type, dtype) —
        #: rebuilt lazily after :meth:`set_descriptor_stats`
        self._lp_standardization: dict[tuple[int, np.dtype], tuple[np.ndarray, np.ndarray]] = {}
        #: how many times a compressed table was actually (re)built — the
        #: cross-request cache-reuse probe: a serving run of N requests over
        #: one model must leave this at 1, however many batches were formed
        self.table_cache_builds = 0

    # -- bookkeeping -------------------------------------------------------------
    @property
    def n_types(self) -> int:
        return self.config.n_types

    def n_parameters(self) -> int:
        nets = [*self._embeddings.values(), *self._fittings.values()]
        return sum(net.n_parameters() for net in nets)

    def fast_embeddings(self) -> dict[tuple[int, int], FastMLP]:
        return self._embeddings

    def fast_fittings(self) -> dict[int, FastMLP]:
        return self._fittings

    # reprolint: cold-path tabulation builds once per (n_points, min_distance) key and is cached; the hot loop only reads the finished table
    def compressed_embeddings(
        self, n_points: int = 2048, min_distance: float = 0.5
    ) -> TabulatedEmbeddingSet:
        """Tabulated embedding nets covering s(r) down to ``min_distance`` A.

        The switching function equals 1/r below the smooth cutoff, so the
        table must extend to 1/min_distance to cover the closest approaches
        seen in practice.  The cache is keyed on ``(n_points, min_distance)``:
        asking for a different grid rebuilds the table instead of returning
        the stale first one.
        """
        key = (int(n_points), float(min_distance))
        if self._compressed is None or self._compressed_key != key:
            s_max = 1.0 / max(min_distance, 1.0e-3)
            self._compressed = TabulatedEmbeddingSet(
                self.fast_embeddings(), s_max=s_max, n_points=n_points
            )
            self._compressed_key = key
            self.table_cache_builds += 1
        return self._compressed

    def active_compressed_embeddings(self) -> TabulatedEmbeddingSet:
        """The table ``evaluate(compressed=True)`` uses: whatever table is
        cached (however it was parameterized), else the default-parameter one."""
        if self._compressed is None:
            return self.compressed_embeddings()
        return self._compressed

    def set_descriptor_stats(self, mean: np.ndarray, std: np.ndarray) -> None:
        mean = np.asarray(mean, dtype=np.float64)
        std = np.asarray(std, dtype=np.float64)
        expected = (self.n_types, self.config.descriptor_dim)
        if mean.shape != expected or std.shape != expected:
            raise ValueError(f"descriptor stats must have shape {expected}")
        if np.any(std <= 0):
            raise ValueError("descriptor std must be positive")
        self.descriptor_mean = mean
        self.descriptor_std = std
        self._lp_standardization.clear()

    def _standardization(self, center_type: int, dtype) -> tuple[np.ndarray, np.ndarray]:
        """Descriptor mean/std of one type at the compute dtype.

        float64 returns the master arrays; lower precisions are cast once and
        cached so the mixed-precision hot loop never re-casts them per step.
        """
        dt = np.dtype(dtype)
        if dt == np.dtype(np.float64):
            return self.descriptor_mean[center_type], self.descriptor_std[center_type]
        key = (center_type, dt)
        entry = self._lp_standardization.get(key)
        if entry is None:
            entry = (
                self.descriptor_mean[center_type].astype(dt),  # reprolint: allow[alloc] cast once per (type, dtype), cached across steps
                self.descriptor_std[center_type].astype(dt),  # reprolint: allow[alloc] cast once per (type, dtype), cached across steps
            )
            self._lp_standardization[key] = entry
        return entry

    def set_energy_bias(self, bias: np.ndarray) -> None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (self.n_types,):
            raise ValueError("energy bias must have one entry per type")
        self.energy_bias = bias

    # -- environments --------------------------------------------------------------
    def build_environment(
        self, atoms: Atoms, box: Box, neighbors: NeighborData, workspace=None
    ) -> LocalEnvironment:
        return build_local_environment(
            atoms,
            box,
            neighbors,
            cutoff=self.config.cutoff,
            cutoff_smooth=self.config.cutoff_smooth,
            max_neighbors=self.config.max_neighbors,
            workspace=workspace,
        )

    # ---------------------------------------------------------------------------
    # Optimized, framework-free evaluation
    # ---------------------------------------------------------------------------
    # reprolint: hot-path
    def evaluate(
        self,
        atoms: Atoms,
        box: Box,
        neighbors: NeighborData,
        precision: PrecisionPolicy | str = DOUBLE,
        backend: GemmBackend | None = None,
        compressed: bool = False,
        compression_table: TabulatedEmbeddingSet | None = None,
        environment: LocalEnvironment | None = None,
        workspace=None,
    ) -> ModelOutput:
        """Energies and analytic forces with the hand-written kernels.

        ``workspace`` (a :class:`repro.md.workspace.Workspace`) reuses the
        per-atom/force/virial output buffers across calls — the arithmetic is
        unchanged (buffers are zero-filled), only the allocations go away.
        ``compression_table`` lets a caller that owns a specific table (the
        compressed pair style) evaluate with it; by default the model's
        active cached table is used.
        """
        policy = get_policy(precision)
        backend = backend or GemmBackend()
        workspace = UNPOOLED if workspace is None else workspace
        env = (
            environment
            if environment is not None
            else self.build_environment(atoms, box, neighbors, workspace=workspace)
        )
        n = env.n_atoms
        per_atom = workspace.zeros("dp.per_atom", n)
        forces = workspace.zeros("dp.forces", (n, 3))
        virial = workspace.zeros("dp.virial", (3, 3))

        if n == 0:
            # degenerate (0-atom) serving request: the contract is a
            # well-formed empty output — (0,) energies, (0, 3) forces and a
            # zero virial — stated explicitly rather than left to whatever
            # shapes the per-type loop happens to fall through with
            return ModelOutput(
                energy=0.0,
                per_atom_energy=per_atom,
                forces=forces,
                precision=policy.name,
                used_framework=False,
                virial=virial,
            )

        table = self._kernel_table(env, compressed, compression_table)
        for _, _, sub, g_d in self._type_blocks(env, per_atom, forces, policy, backend, table, workspace):
            virial -= np.einsum("bni,bnj->ij", sub.displacements, g_d)

        return ModelOutput(
            energy=float(per_atom.sum()),
            per_atom_energy=per_atom,
            forces=forces,
            precision=policy.name,
            used_framework=False,
            virial=virial,
        )

    # ---------------------------------------------------------------------------
    # Fused multi-system evaluation (the serving batch path)
    # ---------------------------------------------------------------------------
    # reprolint: hot-path
    def evaluate_many(
        self,
        env: LocalEnvironment,
        system_of_atom: np.ndarray,
        offsets: np.ndarray,
        precision: PrecisionPolicy | str = DOUBLE,
        backend: GemmBackend | None = None,
        compressed: bool = False,
        compression_table: TabulatedEmbeddingSet | None = None,
        workspace=None,
    ) -> BatchModelOutput:
        """Energies, forces and virials for many independent systems at once.

        ``env`` is a *concatenated* local environment: the per-system
        environment matrices stacked along the atom axis with neighbour
        indices rebased to the global (concatenated) atom numbering — the
        layout :func:`repro.serving.batch.pack_systems` produces.
        ``system_of_atom`` maps each global atom row to its system index and
        ``offsets`` is the ``(S + 1,)`` atom-offset array of the packing.

        The compute reuses the single-system kernels unchanged: the per-type
        compaction of :meth:`_per_type_fast` does not care which system a row
        came from, so each embedding/fitting GEMM and each batched Hermite
        table evaluation runs once over the whole multi-system batch instead
        of once per system — the per-call dispatch and the under-filled small
        GEMMs of one-at-a-time serving disappear.  Per-atom quantities reduce
        to per-system energies/virials through fixed-order ``np.bincount``
        segment sums, always in float64 (the same accumulation-precision
        boundary as :meth:`evaluate`), so batching a system with different
        companions never changes its reduction order.
        """
        policy = get_policy(precision)
        backend = backend or GemmBackend()
        system_of_atom = np.asarray(system_of_atom, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        n = env.n_atoms
        if system_of_atom.shape != (n,):
            raise ValueError("system_of_atom must hold one system index per packed atom")
        n_systems = len(offsets) - 1
        if n_systems < 0 or (n and int(offsets[-1]) != n):
            raise ValueError("offsets must be a (S + 1,) cumulative atom-count array")
        workspace = UNPOOLED if workspace is None else workspace
        per_atom = workspace.zeros("dp.many.per_atom", n)
        forces = workspace.zeros("dp.many.forces", (n, 3))
        energies = workspace.zeros("dp.many.energies", n_systems)
        virials = workspace.zeros("dp.many.virials", (n_systems, 3, 3))

        table = self._kernel_table(env, compressed, compression_table)
        for _, idx, sub, g_d in self._type_blocks(env, per_atom, forces, policy, backend, table, workspace):
            # per-centre virial tensors, segment-reduced per system: the
            # (B, 3, 3) contraction keeps each centre's contribution separate
            # so the bincount below can assign it to the right system
            pav = workspace.capacity("dp.many.pav", len(idx), trailing=(3, 3))
            np.einsum("bni,bnj->bij", sub.displacements, g_d, out=pav)
            # one bincount keyed by system * 9 + component: each (system,
            # component) bin sums its centres in row order, as one bincount
            # per component would
            keys = (system_of_atom[idx] * 9)[:, None] + _VIRIAL_COMPONENTS
            virials -= np.bincount(
                keys.reshape(-1), weights=pav.reshape(-1), minlength=9 * n_systems
            ).reshape(n_systems, 3, 3)

        # per-system energy segment reduction (fixed bincount order, float64)
        if n:
            energies += np.bincount(system_of_atom, weights=per_atom, minlength=n_systems)
        return BatchModelOutput(
            energies=energies,
            per_atom_energy=per_atom,
            forces=forces,
            virials=virials,
            offsets=offsets,
            precision=policy.name,
        )

    def _kernel_table(self, env, compressed, compression_table):
        """The one table argument of the kernels; ``None`` runs the exact nets.

        ``compression_table`` wins over the model's active cached table.  An
        empty environment evaluates nothing, so it builds no table.
        """
        if not compressed or env.n_atoms == 0:
            return None
        return compression_table or self.active_compressed_embeddings()

    # reprolint: hot-path
    def _type_blocks(self, env, per_atom, forces, policy, backend, table, workspace):
        """The one type-block loop behind :meth:`evaluate` and :meth:`evaluate_many`.

        For each centre type present: select its rows, run
        :meth:`_per_type_fast`, write the per-atom energies and scatter the
        forces, then yield ``(type, rows, sub-environment, dE/dd)`` so the
        caller applies its own virial reduction before the next block.
        """
        for ti in range(self.n_types):
            idx = (env.types == ti).nonzero()[0]
            if len(idx) == 0:
                continue
            energies_t, g_d, sub, pairs = self._per_type_fast(env, ti, idx, policy, backend, table, workspace)
            per_atom[idx] = energies_t
            self._scatter_forces(forces, idx, sub, g_d, pairs)
            yield ti, idx, sub, g_d

    # reprolint: hot-path
    def _per_type_fast(
        self,
        env: LocalEnvironment,
        center_type: int,
        atom_indices: np.ndarray,
        policy: PrecisionPolicy,
        backend: GemmBackend,
        table: TabulatedEmbeddingSet | None,
        workspace,
    ):
        """Per-atom energies and per-neighbour displacement gradients for one type.

        The compute precision between the (always-float64) environment matrix
        and the (always-float64) per-atom energy/force/virial reductions is
        :attr:`PrecisionPolicy.compute_dtype`: under the MIX policies the
        environment-matrix operands are downcast once per step into workspace
        buffers and the table interpolation / embedding nets, descriptor
        contraction, fitting net and the whole backward chain run natively at
        that precision.  The float64 policy runs the same code on the original
        float64 arrays (every cast is the identity), and its bits are pinned.

        ``table`` is the compressed embedding table the step interpolates,
        or ``None`` to run the exact embedding nets.

        Scratch is keyed by role, not by centre type: the type blocks run one
        after another, so one set of grow-only buffers sized by the largest
        block serves them all, and each ``(B, N, M)`` operand is written into
        a pooled buffer (``out=``, in-place scaling) rather than allocated.

        The compressed branch touches its ``(B, N, M)`` data in two sweeps
        over blocks of :func:`~repro.deepmd.compression.centre_block` centres
        (``HERMITE_CHUNK_ROWS`` neighbour rows).  Forward, per block: the
        Hermite kernel writes G into one reused ``(rows, M)`` chunk and dG/ds
        into its compact rows, the chunk is copied into the dense ``g`` rows
        and ``R^T G`` of the block follows while they are cache-hot.
        Backward, per block: dE/dR from the kept dense ``g``, the block's
        dE/dG into a block-sized buffer, its valid rows gathered and
        contracted against the block's dG/ds rows.  So dense G is written
        once, no compact copy of G and no ``(B, N, M)`` dE/dG ever exist, and
        the only ``(B, N, M)``-class buffers are ``g`` and the compact dG/ds.
        Descriptor, fitting net and dE/dA stay whole-type-block calls (row
        chunking the fitting GEMM would change bits), and every per-row and
        per-centre operation is the call the whole-array form made on the
        same operands: the block size never selects arithmetic.
        """
        sub = env.select(atom_indices, workspace)
        batch, n_nei = sub.s.shape
        m_width = self.config.embedding_sizes[-1]
        m2 = self.config.axis_neurons
        emb_dtypes = policy.embedding_dtypes(len(self.config.embedding_sizes))
        fit_dtypes = policy.fitting_dtypes(len(self.config.fitting_sizes) + 1)
        cd = np.dtype(policy.compute_dtype)
        # one downcast of the environment operands per step (into reused
        # workspace buffers): everything downstream reads these natively;
        # float64 gets the original arrays back, untouched
        r_c, s_c = sub.compute_arrays(cd, workspace)

        fast_emb = self.fast_embeddings()

        # --- embedding features G and the bookkeeping needed for the backward
        # the real (non-padding) neighbour slots of the block as one flat
        # row-major index, shared by the G scatter, the dE/dG gather, the
        # dE/ds scatter and the force scatter; padded G rows stay exactly zero
        valid = sub.neighbor_types >= 0
        pairs = valid.reshape(-1).nonzero()[0]
        g = workspace.capacity("dp.emb.g", batch, trailing=(n_nei, m_width), dtype=cd)
        g_rows = g.reshape(batch * n_nei, m_width)
        a = workspace.capacity("dp.desc.a", batch, trailing=(4, m_width), dtype=cd)
        tapes: list[tuple[np.ndarray, FastMLP, list]] = []  # (rows, net, its forward tape)
        if table is not None:
            # batched multi-table interpolation, keyed by each real
            # neighbour's table slot; padded slots are never evaluated.  Node
            # placement is float64 regardless of the compute dtype, so the
            # table always reads the fp64 s values
            slots = table.slot_index(center_type, sub.neighbor_types.reshape(-1)[pairs])
            placement = table.place(slots, sub.s.reshape(-1)[pairs], dtype=cd)
            # a centre block is centres [b0, b1) and, pairs being row-major,
            # the compact rows [lo, hi)
            block = min(centre_block(n_nei), batch)
            edges = [*range(0, batch, block), batch]
            bounds = pairs.searchsorted(np.multiply(edges, n_nei)).tolist()
            blocks = list(zip(edges[:-1], edges[1:], bounds[:-1], bounds[1:]))
            chunk = workspace.capacity("dp.emb.chunk", block * n_nei, trailing=(m_width,), dtype=cd)
            # dG/ds stays compact: only G must be dense for the descriptor
            # contraction
            dg_valid = workspace.capacity("dp.emb.ders", len(pairs), trailing=(m_width,), dtype=cd)
            g_rows[~valid.reshape(-1)] = 0.0
            for b0, b1, lo, hi in blocks:
                g_block = chunk[: hi - lo]
                placement.interpolate(lo, hi, g_block, dg_valid[lo:hi])
                g_rows[pairs[lo:hi]] = g_block
                np.matmul(r_c[b0:b1].transpose(0, 2, 1), g[b0:b1], out=a[b0:b1])
            # spent: free the (n, 4) basis blocks before the backward's temporaries
            del placement
        else:
            g.fill(0)
            for tj in np.unique(sub.neighbor_types):
                if tj < 0:
                    continue
                tj = int(tj)
                sel = sub.neighbor_types == tj
                s_sel = s_c[sel]
                net = fast_emb[(center_type, tj)]
                tape: list = []
                g[sel] = net.forward(s_sel[:, None], backend=backend, dtypes=emb_dtypes, cache=tape)
                tapes.append((sel, net, tape))
            np.matmul(r_c.transpose(0, 2, 1), g, out=a)

        # --- descriptor (batched matmuls: BLAS-backed, unlike c_einsum);
        # a = R^T G / N is (B, 4, M)
        a /= n_nei
        a_axis = a[:, :, :m2]
        d = workspace.capacity("dp.desc.d", batch, trailing=(m_width, m2), dtype=cd)
        np.matmul(a.transpose(0, 2, 1), a_axis, out=d)  # (B, M, M2)
        d_std = d.reshape(batch, m_width * m2)
        mean, std = self._standardization(center_type, cd)
        d_std -= mean
        d_std /= std

        # --- fitting net forward + backward (dE/dD)
        fit_net = self.fast_fittings()[center_type]
        fit_tape: list = []
        energies = fit_net.forward(d_std, backend=backend, dtypes=fit_dtypes, cache=fit_tape)
        # the per-atom energy accumulation (bias add onwards) is float64
        energies = energies.reshape(batch).astype(np.float64, copy=False) + self.energy_bias[center_type]
        ones = workspace.capacity("dp.fit.ones", batch, trailing=(1,), dtype=cd)
        ones.fill(1.0)
        # the standardized descriptor is spent once the backward has run:
        # dE/dD takes over its buffer
        grad_d = np.divide(
            fit_net.backward_input(ones, backend=backend, dtypes=fit_dtypes, cache=fit_tape), std, out=d_std
        ).reshape(batch, m_width, m2)

        # --- descriptor backward: dE/dA
        grad_a = np.matmul(a_axis, grad_d.transpose(0, 2, 1))  # (B, 4, M)
        grad_a[:, :, :m2] += np.matmul(a, grad_d)  # (B, 4, M2)

        # --- embedding backward: dE/dR (B, N, 4) and dE/ds from the G path
        grad_r = workspace.capacity("dp.desc.grad_r", batch, trailing=(n_nei, 4), dtype=cd)
        grad_s_embed = workspace.capacity_zeros("dp.emb.grad_s", batch, trailing=(n_nei,), dtype=cd)
        if table is not None:
            # padded slots contribute exactly zero, so only the valid rows of
            # a block's dE/dG need the dot product with the compact dG/ds rows
            # (the G chunk is spent, so it takes the gather)
            grad_s_flat = grad_s_embed.reshape(-1)
            grad_g = workspace.capacity("dp.emb.grad_g", block, trailing=(n_nei, m_width), dtype=cd)
            for b0, b1, lo, hi in blocks:
                np.matmul(g[b0:b1], grad_a[b0:b1].transpose(0, 2, 1), out=grad_r[b0:b1])
                grad_g_block = np.matmul(r_c[b0:b1], grad_a[b0:b1], out=grad_g[: b1 - b0])
                grad_g_block /= n_nei
                rows = pairs[lo:hi]
                grad_g_block.reshape(-1, m_width).take(rows - b0 * n_nei, axis=0, out=chunk[: hi - lo], mode="clip")
                grad_s_flat[rows] = np.einsum("nm,nm->n", chunk[: hi - lo], dg_valid[lo:hi])
        else:
            np.matmul(g, grad_a.transpose(0, 2, 1), out=grad_r)
            # G was last read by dE/dR just above, so dE/dG — the one other
            # (B, N, M) array of the block — overwrites it in place
            grad_g = np.matmul(r_c, grad_a, out=g)  # (B, N, M)
            grad_g /= n_nei
            for sel, net, tape in tapes:
                gs_sel = net.backward_input(grad_g[sel], backend=backend, dtypes=emb_dtypes, cache=tape)
                grad_s_embed[sel] = gs_sel[:, 0]
        grad_r /= n_nei

        g_d = self._geometric_chain(sub, grad_r, grad_s_embed)
        return energies, g_d, sub, pairs

    # ---------------------------------------------------------------------------
    # Shared geometric chain
    # ---------------------------------------------------------------------------
    @staticmethod
    def _geometric_chain(sub: LocalEnvironment, grad_r: np.ndarray, grad_s_embed: np.ndarray) -> np.ndarray:
        """Gradient of the per-atom energies with respect to the displacements.

        Combines dE/dR (direct environment-matrix dependence) and dE/ds (the
        embedding path) with ds/dr and the R-row geometry to give
        g_d[b, n, :] = dE_b / d(d_bn), the gradient with respect to the
        minimum-image displacement vector of each neighbour slot.

        ``grad_r`` / ``grad_s_embed`` may arrive in a reduced compute dtype
        (the MIX policies); every geometry operand here is float64, so the
        chain — and the force/virial scatters consuming its output — always
        accumulates in float64 through NumPy's binary promotion.
        """
        safe_r = np.where(sub.distances > 0.0, sub.distances, 1.0)
        unit = sub.displacements / safe_r[..., None]
        s = sub.s
        ds_dr = sub.ds_dr
        h = s / safe_r
        dh_dr = ds_dr / safe_r - s / (safe_r * safe_r)

        grad_s_total = grad_s_embed + grad_r[..., 0]
        grad_r_vec = grad_r[..., 1:4]
        radial = grad_s_total * ds_dr + np.einsum("bnk,bnk->bn", grad_r_vec, sub.displacements) * dh_dr
        # no mask needed: a padding slot has a zero displacement and s, so its
        # unit vector and h are 0.0 and its g_d a signed zero
        return radial[..., None] * unit + grad_r_vec * h[..., None]

    @staticmethod
    # reprolint: hot-path
    def _scatter_forces(
        forces: np.ndarray, atom_indices: np.ndarray, sub: LocalEnvironment, g_d: np.ndarray, pairs: np.ndarray
    ) -> None:
        """Accumulate forces from the displacement gradients.

        The energy of centre i depends on d_ij = r_j - r_i, so
        F_j -= dE_i/dd_ij and F_i += dE_i/dd_ij.  ``pairs`` is the flat
        row-major index of the block's real neighbour slots.  The scatter
        runs through the bincount reduction (:func:`scatter_add_vectors`),
        not ``np.add.at`` — both evaluation paths share this chain, so the
        path-equivalence tests see identical accumulation on both sides.
        """
        n_nei = sub.max_neighbors
        centers = np.asarray(atom_indices)[pairs // n_nei]
        scatter_add_vectors(
            forces, centers, sub.neighbor_indices.reshape(-1)[pairs], g_d.reshape(-1, 3)[pairs]
        )

    # ---------------------------------------------------------------------------
    # Descriptor statistics helper (used by the trainer)
    # ---------------------------------------------------------------------------
    def compute_raw_descriptors(self, env: LocalEnvironment, center_type: int) -> np.ndarray:
        idx = np.nonzero(env.types == center_type)[0]
        if len(idx) == 0:
            return np.empty((0, self.config.descriptor_dim))
        return raw_descriptors(env, center_type, idx, self.fast_embeddings(), self.config.axis_neurons)[0]
