"""Offline training: dataset generator, framework graph, trainer -> frozen model.

The paper trains offline and ships a frozen model to the MD engine.  This is
the offline side: :mod:`dataset` (pseudo-AIMD labels standing in for DFT),
:mod:`graph` (a frozen model's nets as :mod:`repro.nnframework` tensors and
the energy graph over them) and :mod:`trainer`, which returns a *new* frozen
:class:`~repro.deepmd.model.DeepPotential`.  Nothing under
``repro.{md,deepmd,parallel,serving,utils}`` imports this package.
"""

from .dataset import ReferenceDataset, generate_copper_dataset, generate_water_dataset
from .graph import build_descriptor_graph, framework_nets
from .trainer import Trainer, TrainingResult, energy_rmse

__all__ = [
    "ReferenceDataset",
    "generate_copper_dataset",
    "generate_water_dataset",
    "build_descriptor_graph",
    "framework_nets",
    "Trainer",
    "TrainingResult",
    "energy_rmse",
]
