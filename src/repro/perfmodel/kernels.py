"""Kernel cost of Deep Potential inference, as plain functions.

FLOP counts are derived from a benchmark system's model hyper-parameters
(embedding sizes, axis neurons, fitting sizes, neighbours per atom) and
priced by the A64FX functions of :mod:`repro.perfmodel.machine`.  The same
counts drive both the baseline (framework, fp64, BLAS, OpenMP) and the
optimized configuration; the configuration's toggles change *which*
efficiency factors, overheads and extra work apply — exactly the structure
of Fig. 9.

Every function takes a ``system`` (a :class:`repro.core.systems.SystemSpec`) and a
``config`` (a :class:`repro.core.OptimizationConfig`) and reads them by
attribute, so this module never imports :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .machine import FUGAKU, FugakuSpec, fitting_gemm_time, gemm_time, threading_overhead, vector_time


@dataclass(frozen=True)
class PerAtomFlops:
    """Floating-point operation counts for evaluating one atom."""

    environment: float
    embedding_forward: float
    embedding_backward: float
    descriptor_forward: float
    descriptor_backward: float
    fitting_forward: float
    fitting_backward: float

    @property
    def total(self) -> float:
        return (
            self.environment
            + self.embedding_forward
            + self.embedding_backward
            + self.descriptor_forward
            + self.descriptor_backward
            + self.fitting_forward
            + self.fitting_backward
        )


def _mlp_flops(sizes: tuple[int, ...]) -> float:
    """Multiply-add FLOPs of one forward pass through consecutive layers."""
    flops = 0.0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        flops += 2.0 * n_in * n_out
    return flops


def per_atom_flops(system, config) -> PerAtomFlops:
    """FLOPs of one atom of ``system`` under ``config``'s embedding (tabulated or nets)."""
    n = system.neighbors_per_atom
    m = system.embedding_sizes[-1]
    m2 = system.axis_neurons

    environment = 12.0 * n  # distances, switching function, R rows
    if config.compressed_embedding:
        # batched cubic-Hermite table kernel: counts reconciled with the
        # real implementation (the constants live next to the kernel in
        # repro.deepmd.compression; a cross-module test pins the match).
        # Imported lazily so the perf model stays usable standalone.
        from ..deepmd.compression import (
            EMBEDDING_GRAD_DOT_FLOPS_PER_COMPONENT,
            HERMITE_DERIVATIVE_FLOPS_PER_COMPONENT,
            HERMITE_DERIVATIVE_FLOPS_PER_NEIGHBOR,
            HERMITE_VALUE_FLOPS_PER_COMPONENT,
            HERMITE_VALUE_FLOPS_PER_NEIGHBOR,
        )

        embedding_fwd = (
            HERMITE_VALUE_FLOPS_PER_COMPONENT * m + HERMITE_VALUE_FLOPS_PER_NEIGHBOR
        ) * n
        embedding_bwd = (
            (
                HERMITE_DERIVATIVE_FLOPS_PER_COMPONENT
                + EMBEDDING_GRAD_DOT_FLOPS_PER_COMPONENT
            )
            * m
            + HERMITE_DERIVATIVE_FLOPS_PER_NEIGHBOR
        ) * n
    else:
        per_neighbor = _mlp_flops((1, *system.embedding_sizes))
        embedding_fwd = per_neighbor * n
        embedding_bwd = per_neighbor * n  # input-gradient pass

    descriptor_fwd = 2.0 * n * 4 * m + 2.0 * 4 * m * m2
    descriptor_bwd = 2.0 * descriptor_fwd + 2.0 * n * 4 * m  # dA, dR, dG

    fitting_fwd = _mlp_flops((m * m2, *system.fitting_sizes, 1))
    fitting_bwd = fitting_fwd

    return PerAtomFlops(
        environment=environment,
        embedding_forward=embedding_fwd,
        embedding_backward=embedding_bwd,
        descriptor_forward=descriptor_fwd,
        descriptor_backward=descriptor_bwd,
        fitting_forward=fitting_fwd,
        fitting_backward=fitting_bwd,
    )


def per_atom_time(system, config, atoms_per_thread: int, machine: FugakuSpec = FUGAKU) -> float:
    """Modelled time (s) to evaluate one atom of ``system`` on one core.

    ``atoms_per_thread`` sets the M dimension of the fitting-net GEMMs
    (atom-by-atom evaluation means M equals the number of atoms a thread
    batches, 1-3 in the strong-scaling limit).
    """
    if atoms_per_thread < 1:
        raise ValueError("atoms per thread must be >= 1")
    flops = per_atom_flops(system, config)
    precision, backend = config.precision, config.gemm_backend
    emb_dtype = "fp32" if precision in ("mix-fp32", "mix-fp16") else "fp64"
    fit_dtype = emb_dtype
    fit_first_dtype = "fp16" if precision == "mix-fp16" else fit_dtype

    node = machine.node
    time = 0.0
    # environment + descriptor: bandwidth/vector work at moderate efficiency
    time += vector_time(node, flops.environment, 0.10)
    time += vector_time(node, flops.descriptor_forward + flops.descriptor_backward, 0.20, emb_dtype)
    # embedding net: regular-shaped GEMMs over the neighbour dimension (or
    # the interpolation table when compressed)
    if config.compressed_embedding:
        time += vector_time(node, flops.embedding_forward + flops.embedding_backward, 0.15, emb_dtype)
    else:
        sizes = (1, *system.embedding_sizes)
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            time += 2.0 * gemm_time(node, system.neighbors_per_atom, n_out, n_in, emb_dtype, backend)
    # fitting net: tall-and-skinny GEMMs, forward + backward
    m_dim = atoms_per_thread
    sizes = (system.embedding_sizes[-1] * system.axis_neurons, *system.fitting_sizes, 1)
    for layer, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        dtype = fit_first_dtype if layer == 0 else fit_dtype
        fwd = fitting_gemm_time(node, m_dim, n_out, n_in, dtype, backend)
        bwd = fitting_gemm_time(node, m_dim, n_in, n_out, dtype, backend, transposed_b=not config.pretranspose)
        time += (fwd + bwd) / m_dim  # per atom
    if config.use_framework:
        time *= machine.framework_kernel_factor
    return time


def rank_compute_time(system, config, atoms_on_rank: int, machine: FugakuSpec = FUGAKU) -> float:
    """Pair-phase time of one rank holding ``atoms_on_rank`` atoms, for one MD step.

    Atoms are distributed over ``config.threads_per_rank`` threads
    atom-by-atom; the busiest thread (``ceil(atoms/threads)``) determines the
    phase time.  The framework's fixed session overhead (one session per
    thread, running concurrently) adds its full latency once.  Without
    ``config.batched_inference`` every fitting-net GEMM runs with M=1 (the
    layout of ``repro.reference.scalar``) instead of the vectorized batch.
    """
    if atoms_on_rank < 0:
        raise ValueError("atom count must be non-negative")
    threads_per_rank = max(1, config.threads_per_rank)
    atoms_per_thread = math.ceil(atoms_on_rank / threads_per_rank) if atoms_on_rank else 0
    batch = max(atoms_per_thread, 1) if config.batched_inference else 1
    time = atoms_per_thread * per_atom_time(system, config, batch, machine)
    if config.use_framework:
        time += machine.framework_overhead
    time += threading_overhead(machine, config.threading)
    # neighbour-list rebuild, amortized over the paper's 50-step cadence
    time += neighbor_rebuild_time(system, config, atoms_on_rank, machine) / 50
    # integration / thermostat / bookkeeping
    time += 2.0e-6 + 5.0e-9 * atoms_on_rank
    return time


def neighbor_rebuild_time(system, config, atoms_on_rank: int, machine: FugakuSpec = FUGAKU) -> float:
    """Time (s) of one binned neighbour-list rebuild on one rank.

    Prices the vectorized binned build the MD engines actually run
    (``repro.md.neighbor._cell_list_pairs``): binning plus a stable sort
    cost ~60 FLOP-equivalents of bookkeeping per atom, and the half
    stencil of unit-sized cells examines ~3.2x more candidate pairs than
    survive the cutoff (~1.6x the padded full-list neighbour count), at
    ~9 FLOPs per candidate for the wrap-and-compare distance filter.
    All of it is streaming work over ``config.threads_per_rank`` threads,
    priced at low arithmetic intensity.  There is no O(N^2) term: the
    brute-force search is only reachable below
    ``repro.md.neighbor.BRUTE_FORCE_THRESHOLD`` atoms.
    """
    candidates_per_atom = 1.6 * system.neighbors_per_atom
    flops = (
        (60.0 + 9.0 * candidates_per_atom)
        * max(atoms_on_rank, 1)
        / max(config.threads_per_rank, 1)
    )
    return vector_time(machine.node, flops, 0.10)
