"""Deep Potential (DeePMD) model: descriptor, networks, forces, training.

This package implements the DeepPot-SE ("smooth edition") model that
DeePMD-kit evaluates inside LAMMPS:

* :mod:`smoothing` — the switching function s(r) defining the smoothed
  environment matrix,
* :mod:`envmat` — local environment matrices R_i for all atoms at once,
  built as batched NumPy from the MD engine's padded neighbour lists (with
  the paper's per-type pre-classification),
* :mod:`embedding` / :mod:`fitting` — the embedding and fitting networks
  (framework-backed for training, exportable to fast NumPy kernels),
* :mod:`descriptor` — the symmetry-preserving descriptor D_i and its
  framework-graph construction,
* :mod:`model` — :class:`DeepPotential`, one reentrant framework-free
  evaluator (``evaluate`` / ``evaluate_many``) with hand-written
  forward/backward kernels, mixed precision, the sve-style tall-skinny GEMM
  backend, and tabulated (compressed) embedding nets,
* :mod:`reference` / :mod:`training` — pseudo-AIMD data generation and the
  trainer,
* :mod:`pair_style` — the adapter exposing the model as an MD force field.

The goldens this package is pinned against — the per-atom scalar loop
(``repro.reference.scalar``), the per-key table interpolation and the
framework (:mod:`repro.nnframework`) baseline
(``repro.reference.deepmd``) — live in :mod:`repro.reference`, which nothing
here imports.
"""

from .smoothing import switching_function, switching_derivative
from .envmat import LocalEnvironment, build_local_environment
from .gemm import GemmBackend, GemmStats
from .networks import FastMLP
from .precision import PrecisionPolicy, DOUBLE, MIX_FP32, MIX_FP16
from .embedding import EmbeddingNetSet
from .fitting import FittingNetSet
from .compression import TabulatedEmbeddingSet
from .model import DeepPotential, DeepPotentialConfig, ModelOutput
from .reference import ReferenceDataset, generate_copper_dataset, generate_water_dataset
from .training import Trainer, TrainingResult
from .pair_style import DeepPotentialForceField

__all__ = [
    "switching_function",
    "switching_derivative",
    "LocalEnvironment",
    "build_local_environment",
    "GemmBackend",
    "GemmStats",
    "FastMLP",
    "PrecisionPolicy",
    "DOUBLE",
    "MIX_FP32",
    "MIX_FP16",
    "EmbeddingNetSet",
    "FittingNetSet",
    "TabulatedEmbeddingSet",
    "DeepPotential",
    "DeepPotentialConfig",
    "ModelOutput",
    "ReferenceDataset",
    "generate_copper_dataset",
    "generate_water_dataset",
    "Trainer",
    "TrainingResult",
    "DeepPotentialForceField",
]
