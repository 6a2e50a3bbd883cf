"""Training the Deep Potential model against reference data.

The trainer fits the per-atom energies of the reference frames (the
pseudo-AIMD labels) by gradient descent through the framework graph of
:mod:`repro.training.graph`.  Per-atom energy matching gives far more
signal per frame than total-energy matching and keeps the optimization
first-order (force matching would require differentiating through the force
computation, i.e. second-order gradients, which the mini framework does not
support — the paper's training is done offline in any case; what this repo
needs is a model whose accuracy/precision behaviour can be measured).

Before training the trainer

* estimates per-type descriptor standardization statistics, and
* sets the per-type atomic energy bias from a least-squares fit,

both standard steps of the DeePMD-kit training pipeline.

The trainer seeds its own framework tensors from copies of the model's
frozen weights, never writes the model it was given, and hands back a *new*
frozen model in ``TrainingResult.model``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..deepmd.envmat import LocalEnvironment
from ..deepmd.model import DeepPotential
from ..deepmd.networks import FastMLP
from ..md.neighbor import build_neighbor_data
from ..nnframework import ops
from ..nnframework.optimizers import Adam
from ..nnframework.tensor import Tensor
from ..utils.rng import default_rng
from .dataset import ReferenceDataset
from .graph import build_descriptor_graph, framework_nets


@dataclass
class TrainingResult:
    """The trained frozen model, the loss history and final per-atom energy errors."""

    model: DeepPotential | None = None
    loss_history: list[float] = field(default_factory=list)
    energy_rmse_per_atom: float = 0.0
    validation_rmse_per_atom: float | None = None
    n_epochs: int = 0

    @property
    def final_loss(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")

    @property
    def improved(self) -> bool:
        """Did the loss decrease over training?"""
        if len(self.loss_history) < 2:
            return False
        return self.loss_history[-1] < self.loss_history[0]


class Trainer:
    """Fits a :class:`DeepPotential` to a :class:`ReferenceDataset`.

    ``model`` supplies the configuration and the starting weights; the
    tensors and calibration constants being fitted live on the trainer.
    """

    def __init__(
        self,
        model: DeepPotential,
        dataset: ReferenceDataset,
        learning_rate: float = 2.0e-3,
        rng=None,
    ) -> None:
        if len(dataset) == 0:
            raise ValueError("dataset is empty")
        self.model = model
        self.dataset = dataset
        self.rng = default_rng(rng)
        self.embeddings, self.fittings = framework_nets(model)
        nets = [*self.embeddings.values(), *self.fittings.values()]
        self.optimizer = Adam([p for net in nets for p in net.parameters()], lr=learning_rate)
        self.energy_bias = model.energy_bias
        self.descriptor_mean = model.descriptor_mean
        self.descriptor_std = model.descriptor_std
        self._environments: list[LocalEnvironment] = []
        self._prepared = False

    # -- preparation ---------------------------------------------------------
    def prepare(self) -> None:
        """Build environments, descriptor statistics and energy biases."""
        cfg = self.model.config
        self._environments = []
        for frame in self.dataset.frames:
            neighbors = build_neighbor_data(frame.atoms.positions, frame.box, cfg.cutoff)
            self._environments.append(
                self.model.build_environment(frame.atoms, frame.box, neighbors)
            )

        # Per-type energy bias: mean reference per-atom energy of that type.
        n_types = self.model.n_types
        bias = np.zeros(n_types)
        for ti in range(n_types):
            values = []
            for frame in self.dataset.frames:
                sel = frame.atoms.types == ti
                if np.any(sel):
                    values.append(frame.per_atom_energy[sel])
            if values:
                bias[ti] = float(np.concatenate(values).mean())
        self.energy_bias = bias

        # Descriptor standardization statistics per centre type.
        dim = cfg.descriptor_dim
        mean = np.zeros((n_types, dim))
        std = np.ones((n_types, dim))
        for ti in range(n_types):
            descriptors = [
                self.model.compute_raw_descriptors(env, ti) for env in self._environments
            ]
            descriptors = [d for d in descriptors if len(d)]
            if not descriptors:
                continue
            stacked = np.vstack(descriptors)
            mean[ti] = stacked.mean(axis=0)
            sigma = stacked.std(axis=0)
            std[ti] = np.where(sigma > 1.0e-8, sigma, 1.0)
        self.descriptor_mean, self.descriptor_std = mean, std
        self._prepared = True

    # -- training loop ---------------------------------------------------------
    def train(
        self,
        n_epochs: int = 50,
        frames_per_epoch: int | None = None,
        validation: ReferenceDataset | None = None,
        verbose: bool = False,
    ) -> TrainingResult:
        """Run ``n_epochs`` of Adam on the per-atom energy MSE."""
        if not self._prepared:
            self.prepare()
        result = TrainingResult()
        n_frames = len(self.dataset.frames)
        frames_per_epoch = frames_per_epoch or n_frames

        for epoch in range(n_epochs):
            order = self.rng.permutation(n_frames)[:frames_per_epoch]
            epoch_loss = 0.0
            for frame_idx in order:
                frame = self.dataset.frames[frame_idx]
                env = self._environments[frame_idx]
                loss = self._frame_loss(frame, env)
                self.optimizer.zero_grad()
                loss.backward()
                self.optimizer.step()
                epoch_loss += loss.item()
            result.loss_history.append(epoch_loss / max(len(order), 1))
            if verbose:  # pragma: no cover - console convenience
                print(f"epoch {epoch + 1:4d}  loss {result.loss_history[-1]:.6e}")

        result.model = self.frozen_model()
        result.n_epochs = n_epochs
        result.energy_rmse_per_atom = energy_rmse(result.model, self.dataset)
        if validation is not None and len(validation):
            result.validation_rmse_per_atom = energy_rmse(result.model, validation)
        return result

    def frozen_model(self) -> DeepPotential:
        """A new frozen model over the trainer's current weights and calibration."""
        return DeepPotential.from_weights(
            self.model.config,
            {key: FastMLP(net.export_weights()) for key, net in self.embeddings.items()},
            {key: FastMLP(net.export_weights()) for key, net in self.fittings.items()},
            self.descriptor_mean,
            self.descriptor_std,
            self.energy_bias,
        )

    def _frame_loss(self, frame, env: LocalEnvironment) -> Tensor:
        """Per-atom energy MSE of one frame as a framework scalar."""
        cfg = self.model.config
        losses = []
        for ti in range(self.model.n_types):
            idx = np.nonzero(env.types == ti)[0]
            if len(idx) == 0:
                continue
            graph = build_descriptor_graph(
                env,
                ti,
                idx,
                self.embeddings,
                self.fittings,
                cfg.axis_neurons,
                self.descriptor_mean[ti],
                self.descriptor_std[ti],
                self.energy_bias[ti],
                inputs_require_grad=False,
            )
            target = Tensor(frame.per_atom_energy[idx].reshape(-1, 1))
            losses.append(ops.mse_loss(graph.energies, target))
        if not losses:
            return Tensor(0.0)
        total = losses[0]
        for extra in losses[1:]:
            total = ops.add(total, extra)
        return ops.mul(total, 1.0 / len(losses))


def energy_rmse(model: DeepPotential, dataset: ReferenceDataset) -> float:
    """Per-atom energy RMSE of ``model`` over ``dataset`` (eV/atom)."""
    errors = []
    for frame in dataset.frames:
        neighbors = build_neighbor_data(frame.atoms.positions, frame.box, model.config.cutoff)
        output = model.evaluate(frame.atoms, frame.box, neighbors)
        errors.append(output.per_atom_energy - frame.per_atom_energy)
    if not errors:
        return 0.0
    stacked = np.concatenate(errors)
    return float(np.sqrt(np.mean(stacked * stacked)))
