"""Training the Deep Potential model against reference data.

The trainer fits the per-atom energies of the reference frames (the
pseudo-AIMD labels) with Adam, on the kernels inference runs: the energy is
:func:`~repro.deepmd.descriptor.raw_descriptors` plus the fitting
:class:`~repro.deepmd.networks.FastMLP`, and its parameter gradients come
from the analytic backward of the same calls (``FastMLP.backward_input``'s
``param_grads`` sink and :func:`~repro.deepmd.descriptor.descriptor_vjp`).
Per-atom energy matching gives far more signal per frame than total-energy
matching and keeps the optimization first-order (force matching would need
second derivatives — the paper's training is done offline in any case; what
this repo needs is a model whose accuracy/precision behaviour can be
measured).  The autograd framework this replaced is the gradient golden in
:mod:`repro.reference`.

Before training the trainer

* estimates per-type descriptor standardization statistics, and
* sets the per-type atomic energy bias from a least-squares fit,

both standard steps of the DeePMD-kit training pipeline.

The trainer fits its own float64 copies of the model's frozen weights,
never writes the model it was given, and hands back a *new* frozen model in
``TrainingResult.model``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..deepmd.descriptor import descriptor_vjp, raw_descriptors
from ..deepmd.envmat import LocalEnvironment
from ..deepmd.model import DeepPotential
from ..deepmd.networks import FastMLP
from ..md.neighbor import build_neighbor_data
from ..utils.rng import default_rng
from .dataset import ReferenceDataset

#: Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1.0e-8


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


class Trainer:
    """Fits a :class:`DeepPotential` to a :class:`ReferenceDataset`.

    ``model`` supplies the configuration and the starting weights; the
    weights and calibration constants being fitted live on the trainer, as
    one flat ``[W0, b0, W1, b1, ...]`` list of float64 arrays per network,
    keyed ``("embedding", (centre, neighbour))`` / ``("fitting", centre)``.
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
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        for k, frame in enumerate(dataset.frames):
            if not (np.all(np.isfinite(frame.atoms.positions)) and np.all(np.isfinite(frame.per_atom_energy))):
                raise ValueError(f"frame {k} has non-finite positions or energy labels")
            if np.any((frame.atoms.types < 0) | (frame.atoms.types >= model.n_types)):
                raise ValueError(f"frame {k} has atom types outside the model's {model.config.type_names}")
        self.model = model
        self.dataset = dataset
        self.rng = default_rng(rng)
        self.learning_rate = learning_rate
        nets = {("embedding", key): net for key, net in model.fast_embeddings().items()}
        nets.update({("fitting", key): net for key, net in model.fast_fittings().items()})
        self._layouts = {name: [(l.activation, l.resnet) for l in net.layers] for name, net in nets.items()}
        self.params = {name: [a.copy() for l in net.layers for a in (l.weight, l.bias)] for name, net in nets.items()}
        self._moments = {name: [(np.zeros_like(p), np.zeros_like(p)) for p in ps] for name, ps in self.params.items()}
        self._steps = 0
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
        validation: ReferenceDataset | None = None,
    ) -> TrainingResult:
        """Run ``n_epochs`` of Adam on the per-atom energy MSE, each epoch one
        pass over every frame in a fresh random order."""
        if not self._prepared:
            self.prepare()
        result = TrainingResult()
        n_frames = len(self.dataset.frames)

        for epoch in range(n_epochs):
            order = self.rng.permutation(n_frames)
            epoch_loss = 0.0
            for frame_idx in order:
                loss, grads = self._frame_gradients(self.dataset.frames[frame_idx], self._environments[frame_idx])
                if not np.isfinite(loss):
                    raise FloatingPointError(f"epoch {epoch}: frame {frame_idx} loss is {loss}")
                self._adam_step(grads)
                epoch_loss += loss
            result.loss_history.append(epoch_loss / max(len(order), 1))

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
            *self._frozen_nets(),
            self.descriptor_mean,
            self.descriptor_std,
            self.energy_bias,
        )

    def _frozen_nets(self) -> tuple[dict, dict]:
        """``(embeddings, fittings)``: the current weights as new read-only kernels."""
        nets = {"embedding": {}, "fitting": {}}
        for (kind, key), params in self.params.items():
            nets[kind][key] = FastMLP(
                [
                    {"weight": weight, "bias": bias, "activation": act, "resnet": res}
                    for weight, bias, (act, res) in zip(params[::2], params[1::2], self._layouts[kind, key])
                ]
            )
        return nets["embedding"], nets["fitting"]

    def _frame_gradients(self, frame, env: LocalEnvironment) -> tuple[float, dict]:
        """Per-atom energy MSE of one frame (mean over the centre types present)
        and its gradients, keyed like :attr:`params`, for the nets that took part."""
        embeddings, fittings = self._frozen_nets()
        blocks = [(ti, idx) for ti in range(self.model.n_types) if len(idx := np.nonzero(env.types == ti)[0])]
        loss, grads = 0.0, {}

        def backward(name, net, grad_output, tape):
            sink: list = []
            grad_input = net.backward_input(grad_output, cache=tape, param_grads=sink)
            grads[name] = [g for layer in reversed(sink) for g in layer]
            return grad_input

        for ti, idx in blocks:
            d, tape = raw_descriptors(env, ti, idx, embeddings, self.model.config.axis_neurons)
            fit_tape: list = []
            d_std = (d - self.descriptor_mean[ti]) / self.descriptor_std[ti]
            energies = fittings[ti].forward(d_std, cache=fit_tape)[:, 0] + self.energy_bias[ti]
            diff = energies - frame.per_atom_energy[idx]
            loss += np.mean(diff * diff)
            grad_e = (2.0 / (len(idx) * len(blocks))) * diff[:, None]
            grad_d = backward(("fitting", ti), fittings[ti], grad_e, fit_tape) / self.descriptor_std[ti]
            for tj, grad_g, net_tape in descriptor_vjp(tape, grad_d):
                backward(("embedding", (ti, tj)), embeddings[ti, tj], grad_g, net_tape)
        return float(loss / max(len(blocks), 1)), grads

    def _adam_step(self, grads: dict) -> None:
        """One Adam step over the nets in ``grads``; a net without a gradient is not stepped."""
        self._steps += 1
        b1, b2 = ADAM_BETAS
        bias1, bias2 = 1.0 - b1**self._steps, 1.0 - b2**self._steps
        for name, layer_grads in grads.items():
            for p, (m, v), g in zip(self.params[name], self._moments[name], layer_grads):
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                p -= self.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


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
