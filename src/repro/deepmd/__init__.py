"""Deep Potential (DeePMD) inference: descriptor, frozen networks, forces.

This package implements the DeepPot-SE ("smooth edition") model that
DeePMD-kit evaluates inside LAMMPS:

* :mod:`smoothing` — the switching function s(r) defining the smoothed
  environment matrix,
* :mod:`envmat` — local environment matrices R_i for all atoms at once,
  built as batched NumPy from the MD engine's padded neighbour lists (with
  the paper's per-type pre-classification),
* :mod:`networks` — :class:`FastMLP`, the one home of a network's weights
  (read-only arrays, hand-written forward/backward), and :func:`init_nets`,
  the Glorot draw of an untrained model's nets,
* :mod:`descriptor` — the symmetry-preserving descriptor D_i outside the hot
  path, with its vector-Jacobian product (what training differentiates),
* :mod:`model` — :class:`DeepPotential`, a frozen model behind one reentrant
  framework-free evaluator (``evaluate`` / ``evaluate_many``) with mixed
  precision, FLOP-accounted GEMMs (:mod:`gemm`), and tabulated (compressed)
  embedding nets,
* :mod:`pair_style` — the adapter exposing the model as an MD force field.

This is the paper's §III-B.1 in package form: no autograd framework
anywhere.  Training is offline (:mod:`repro.training`), runs on these same
kernels (``FastMLP.backward_input`` also yields parameter gradients) and
returns a new frozen model; the goldens this package is pinned against — the
per-atom scalar loop, the per-key table interpolation, and the framework
baseline with its autograd gradients — live in :mod:`repro.reference`.
Nothing here imports either.
"""

from .smoothing import switching_function, switching_derivative
from .envmat import AccuracyWarning, LocalEnvironment, build_local_environment
from .gemm import GemmBackend, GemmStats
from .networks import FastMLP, init_nets
from .precision import PrecisionPolicy, DOUBLE, MIX_FP32, MIX_FP16
from .compression import TabulatedEmbeddingSet
from .model import DeepPotential, DeepPotentialConfig, ModelOutput
from .pair_style import DeepPotentialForceField

__all__ = [
    "switching_function",
    "switching_derivative",
    "AccuracyWarning",
    "LocalEnvironment",
    "build_local_environment",
    "GemmBackend",
    "GemmStats",
    "FastMLP",
    "init_nets",
    "PrecisionPolicy",
    "DOUBLE",
    "MIX_FP32",
    "MIX_FP16",
    "TabulatedEmbeddingSet",
    "DeepPotential",
    "DeepPotentialConfig",
    "ModelOutput",
    "DeepPotentialForceField",
]
