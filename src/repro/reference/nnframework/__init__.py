"""A miniature computation-graph / autodiff framework: the §III-B.1 baseline and the gradient golden.

The original DeePMD-kit executes its model inside TensorFlow; the paper's
first computational optimization is *removing* that framework because its
fixed per-session overhead (~4 ms) dominates the per-step time in the strong
scaling limit.  This package is the framework side of that comparison:

* :class:`Tensor` — an eager tensor with reverse-mode (tape) autodiff,
* :mod:`ops <repro.reference.nnframework.ops>` — the differentiable
  operations the Deep Potential graph needs (matmul, tanh, reductions,
  slicing, ...),
* :class:`Dense` / :class:`MLP` — fully connected layers,
* :class:`Session` — a "framework runtime" wrapper that executes a model
  function and *accounts* a configurable fixed overhead per run, mirroring the
  TensorFlow session-run overhead measured in the paper.

It has two jobs, both through :mod:`repro.reference.graph`: the baseline
Deep Potential evaluation (:func:`repro.reference.deepmd.evaluate_with_framework`,
what Fig 9 prices) and the gradient golden the analytic trainer of
:mod:`repro.training` is pinned to.  Production — inference and training
alike — runs on the hand-written kernels of :mod:`repro.deepmd` and never
imports this package.
"""

from .tensor import Tensor, no_grad
from . import ops
from .layers import Dense, MLP
from .session import Session, SessionStats

__all__ = [
    "Tensor",
    "no_grad",
    "ops",
    "Dense",
    "MLP",
    "Session",
    "SessionStats",
]
