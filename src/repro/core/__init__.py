"""Top-level pricing: optimization configurations, systems, the modelled step.

:class:`~repro.core.config.OptimizationConfig` captures every toggle the paper evaluates
(communication scheme, framework removal, precision, GEMM backend, NT->NN
pre-transposition, intra-node load balance, threading runtime, RDMA memory
pool); :func:`step_report` prices one MD step of a benchmark system
(:func:`copper_spec`, :func:`water_spec`) for a configuration on a node count,
over the real domain decomposition and the performance model, and
:func:`optimization_ladder` / :func:`strong_scaling` ask it down the Fig. 9
ladder and over the Fig. 11 node counts; :mod:`repro.core.experiments`
exposes one function per table/figure of the paper, each pricing the
paper's one grid (``tests/test_paper_figures.py`` checks and prints them).
"""

from .config import baseline_config, optimized_config
from .systems import copper_spec, water_spec
from .engine import optimization_ladder, step_report, strong_scaling

__all__ = [
    "baseline_config",
    "optimized_config",
    "copper_spec",
    "water_spec",
    "step_report",
    "optimization_ladder",
    "strong_scaling",
]
