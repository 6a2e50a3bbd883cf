"""A miniature computation-graph / autodiff framework.

The original DeePMD-kit executes its model inside TensorFlow; the paper's
first computational optimization is *removing* that framework because its
fixed per-session overhead (~4 ms) dominates the per-step time in the strong
scaling limit.  To reproduce that structure faithfully this package provides
a small but real NN framework:

* :class:`Tensor` — an eager tensor with reverse-mode (tape) autodiff,
* :mod:`ops <repro.nnframework.ops>` — the differentiable operations needed by
  the Deep Potential model (matmul, tanh, reductions, slicing, ...),
* :class:`Dense` / :class:`MLP` — fully connected layers,
* :class:`SGD` / :class:`Adam` — optimizers used by the trainer,
* :class:`Session` — a "framework runtime" wrapper that executes a model
  function and *accounts* a configurable fixed overhead per run, mirroring the
  TensorFlow session-run overhead measured in the paper.

Two things run through this framework: offline training
(:mod:`repro.training`) and the baseline (un-optimized) Deep Potential
evaluation (:func:`repro.reference.deepmd.evaluate_with_framework`).  The
optimized path (:mod:`repro.deepmd`) uses hand-written NumPy kernels and
never imports this package, which is exactly the "TensorFlow removement"
described in §III-B.1.
"""

from .tensor import Tensor, no_grad
from . import ops
from .layers import Dense, MLP
from .initializers import glorot_uniform, he_normal, zeros, constant
from .optimizers import SGD, Adam
from .session import Session, SessionStats

__all__ = [
    "Tensor",
    "no_grad",
    "ops",
    "Dense",
    "MLP",
    "glorot_uniform",
    "he_normal",
    "zeros",
    "constant",
    "SGD",
    "Adam",
    "Session",
    "SessionStats",
]
