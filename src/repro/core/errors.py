"""Energy/force error metrics (Table II of the paper).

The paper reports the error of a single step relative to the AIMD reference
for three precision modes.  Here the reference is the pseudo-AIMD potential
the model was trained on; the metrics match the paper's units (eV/atom for
the energy, eV/A for forces).
"""

from __future__ import annotations

import numpy as np

from ..utils.tables import Table


def energy_error_per_atom(predicted_energy: float, reference_energy: float, n_atoms: int) -> float:
    """|E_model - E_ref| / N in eV/atom."""
    if n_atoms <= 0:
        raise ValueError("atom count must be positive")
    return abs(float(predicted_energy) - float(reference_energy)) / n_atoms


def force_rmse(predicted: np.ndarray, reference: np.ndarray) -> float:
    """Root-mean-square force component error in eV/A."""
    predicted = np.asarray(predicted, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if predicted.shape != reference.shape:
        raise ValueError("force arrays must have the same shape")
    diff = predicted - reference
    return float(np.sqrt(np.mean(diff * diff)))


def precision_error_table(results: dict[str, dict[str, float]]) -> Table:
    """Format per-precision error dictionaries as the Table II layout.

    ``results`` maps precision name -> {"energy": eV/atom, "force": eV/A}.
    """
    table = Table(
        headers=["Precision", "Error in energy [eV/atom]", "Error in force [eV/A]"],
        title="Table II — error of the energy and force for one time-step",
    )
    for precision, metrics in results.items():
        table.add_row(precision, metrics["energy"], metrics["force"])
    return table
