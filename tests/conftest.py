"""Shared fixtures: small systems and a tiny trained Deep Potential."""

from __future__ import annotations

import pytest

from repro.deepmd import DeepPotential, DeepPotentialConfig
from repro.md import copper_system, water_system
from repro.md.neighbor import build_neighbor_data
from repro.training import Trainer, generate_copper_dataset


@pytest.fixture(scope="session")
def small_copper():
    """A perturbed 3x3x3 FCC copper cell (108 atoms) and its box."""
    atoms, box = copper_system((3, 3, 3), perturbation=0.08, rng=1)
    return atoms, box


@pytest.fixture(scope="session")
def small_water():
    """A 27-molecule water box with topology."""
    atoms, box, topology = water_system(27, rng=2)
    return atoms, box, topology


@pytest.fixture(scope="session")
def tiny_copper_model():
    """A small, untrained copper Deep Potential (fast to evaluate)."""
    config = DeepPotentialConfig(
        type_names=("Cu",),
        cutoff=4.5,
        cutoff_smooth=3.5,
        embedding_sizes=(6, 12),
        axis_neurons=4,
        fitting_sizes=(16, 16),
        max_neighbors=48,
        seed=0,
    )
    return DeepPotential(config)


@pytest.fixture(scope="session")
def tiny_water_model():
    """A small, untrained two-species Deep Potential."""
    config = DeepPotentialConfig(
        type_names=("O", "H"),
        cutoff=4.5,
        cutoff_smooth=3.5,
        embedding_sizes=(6, 12),
        axis_neurons=4,
        fitting_sizes=(16, 16),
        max_neighbors=48,
        seed=1,
    )
    return DeepPotential(config)


@pytest.fixture(scope="session")
def trained_copper_model():
    """A tiny copper model trained for a handful of epochs on Gupta labels."""
    dataset = generate_copper_dataset(n_frames=6, n_cells=(2, 2, 2), cutoff=3.6, rng=3)
    config = DeepPotentialConfig(
        type_names=("Cu",),
        cutoff=3.6,
        cutoff_smooth=3.0,
        embedding_sizes=(8, 16),
        axis_neurons=4,
        fitting_sizes=(24, 24),
        max_neighbors=32,
        seed=4,
    )
    trainer = Trainer(DeepPotential(config), dataset, learning_rate=5.0e-3, rng=5)
    result = trainer.train(n_epochs=25)
    return result.model, dataset, result


def neighbor_data_for(atoms, box, cutoff):
    """Helper used across force-field tests."""
    return build_neighbor_data(atoms.positions, box, cutoff)
