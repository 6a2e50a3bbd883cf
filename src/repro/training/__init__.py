"""Offline training: dataset generator and trainer -> frozen model.

The paper trains offline and ships a frozen model to the MD engine.  This is
the offline side: :mod:`dataset` (pseudo-AIMD labels standing in for DFT)
and :mod:`trainer`, which fits float64 weights with analytic gradients
through the production kernels of :mod:`repro.deepmd` and returns a *new*
frozen :class:`~repro.deepmd.model.DeepPotential`.  It never imports the
autograd framework, which lives in :mod:`repro.reference` as the gradient
golden.  Nothing under ``repro.{md,deepmd,parallel,serving,utils}`` imports
this package.
"""

from .dataset import generate_copper_dataset, generate_water_dataset
from .trainer import Trainer

__all__ = [
    "generate_copper_dataset",
    "generate_water_dataset",
    "Trainer",
]
