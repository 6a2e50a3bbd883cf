"""Per-step performance model: kernel costs, communication costs, ns/day.

The paper's headline numbers (149 ns/day, 31.7x speedup, 62 % parallel
efficiency at 12,000 nodes) are wall-clock measurements on Fugaku.  Without
the machine, this package models the per-step time from first principles —
it *prices* what :mod:`repro.parallel` *executes*:

* :mod:`machine` — the Fugaku spec (:data:`FUGAKU`: A64FX node, TofuD
  network, NIC registration cache) and the plain functions that price counts
  on it: GEMM, fitting-GEMM and vector time, the OpenMP-vs-thread-pool
  region overhead, NoC copies and syncs, message occupancy and wire latency,
  the TNI makespan, the NIC-cache penalty behind the RDMA memory pool
  (Fig. 8) and the torus hop distance;
* :mod:`kernels` — FLOP counts of the Deep Potential inference per atom
  (embedding, descriptor, fitting, forward + backward), converted to time by
  the A64FX functions with the GEMM-efficiency/precision factors the paper
  reports, plus framework overhead: :func:`per_atom_time` and
  :func:`rank_compute_time` of a benchmark system under an optimization
  configuration, both read by attribute;
* :mod:`exchange` — the ghost exchange compared in Fig. 7: one table of
  the eight bar labels (LAMMPS 3-stage over MPI or uTofu, p2p, node-based
  with 1/2/4 leaders, single-thread and ref-layout variants),
  :func:`plan_exchange` producing a :class:`CommunicationPlan` for one
  representative rank from the real decomposition, and
  :func:`exchange_time` pricing it on the TofuD model (gather/scatter over
  the NoC, messages over the TNIs, NIC-cache penalties, the force send-back);
* :mod:`loadbalance` — per-rank atom counts of a decomposition with and
  without the intra-node balance, their modelled pair times side by side
  (:func:`balance_comparison`; Table III, Fig. 10) and the ghost-count
  closed forms of §III-C (eqs. 1 and 2);
* :mod:`strongscaling` — sweeps over node counts and parallel efficiency;
* :mod:`reconcile` — the one module that takes a running engine: the plan
  matching its setup, that plan at the measured ghost volume, and the
  Table III prediction seeded with its measured pair cost.

:func:`repro.core.step_report` adds the pair and exchange phases into one
step time and nanoseconds per day.  All model constants live in
:mod:`repro.perfmodel.machine`; the algorithmic
inputs (message counts/sizes, atom counts per rank, FLOPs) come from the real
decomposition (:mod:`repro.parallel.decomposition`, :mod:`repro.parallel.ghost`)
and the real model configuration.
"""

from .exchange import exchange_time
from .loadbalance import balance_comparison
from .strongscaling import scaling_table
from .reconcile import modelled_plan, plan_with_measured_volume

__all__ = [
    "exchange_time",
    "balance_comparison",
    "scaling_table",
    "modelled_plan",
    "plan_with_measured_volume",
]
