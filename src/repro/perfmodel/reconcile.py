"""Where a running engine meets the machine model.

:mod:`repro.parallel` *executes* the ghost exchange and the node-box load
balance; the rest of this package *prices* them on the Fugaku model for one
representative rank.  This is the one module that takes a running
:class:`~repro.parallel.engine.DomainDecomposedSimulation` — duck-typed, read
through public attributes only — and sets the two side by side: the plan that
prices the engine's own decomposition, that plan rescaled to the ghost volume
``engine.measured_comm_volume()`` reports, and the Table III prediction next
to ``engine.load_balance_stats()``.
"""

from __future__ import annotations

from dataclasses import replace

from .exchange import CommunicationPlan, plan_exchange
from .loadbalance import IntraNodeLoadBalancer


def modelled_plan(engine, scheme_name: str | None = None) -> CommunicationPlan:
    """The priced :class:`CommunicationPlan` matching ``engine``'s setup.

    Combine with :func:`plan_with_measured_volume` to price the exchange at
    the ghost volumes the engine actually moved.
    """
    name = scheme_name or ("p2p-utofu" if engine.scheme == "p2p" else "lb-4l")
    density = engine.n_global / engine.box.volume
    return plan_exchange(name, engine.decomposition, engine.exchange.cutoff, density)


def intra_node_balance(engine, per_atom_time: float | None = None, **kwargs):
    """Table III comparison seeded with ``engine``'s measured pair cost."""
    if per_atom_time is None:
        evaluations = max(engine.n_force_evaluations, 1)
        total_pair = sum(domain.pair_seconds for domain in engine.domains)
        per_atom_time = total_pair / (evaluations * max(engine.n_global, 1))
        per_atom_time = max(per_atom_time, 1.0e-12)
    balancer = IntraNodeLoadBalancer(engine.decomposition)
    return balancer.compare(engine.capture_positions(), per_atom_time, **kwargs)


def plan_with_measured_volume(
    plan: CommunicationPlan, measured_forward_bytes: float
) -> CommunicationPlan:
    """Rescale a modelled plan to a *measured* forward exchange volume.

    The scheme planners size their messages from a uniform-density geometric
    model; the domain-decomposed engine reports the ghost bytes one rank
    actually shipped per exchange
    (``engine.measured_comm_volume()["forward_bytes_per_rank"]``).
    This helper scales every message and the intra-node gather/scatter copies
    by ``measured / modelled`` so the machine model prices the exchange the
    running engine performed, keeping message counts, rounds, hop counts and
    threading untouched.
    """
    if measured_forward_bytes < 0:
        raise ValueError("measured volume must be non-negative")
    modelled = plan.total_message_bytes
    if modelled <= 0.0:
        raise ValueError("cannot rescale a plan that models zero message bytes")
    scale = measured_forward_bytes / modelled
    rounds = [replace(r, messages=[replace(m, n_bytes=m.n_bytes * scale) for m in r.messages]) for r in plan.rounds]
    return replace(
        plan,
        rounds=rounds,
        gather_bytes_per_rank=[b * scale for b in plan.gather_bytes_per_rank],
        scatter_bytes_per_rank=[b * scale for b in plan.scatter_bytes_per_rank],
    )
