"""repro — reproduction of "Scaling Molecular Dynamics with ab initio Accuracy
to 149 Nanoseconds per Day" (SC'24).

The package is organised in layers (see the README's "Layout" table):

* executes: :mod:`repro.md` (MD engine), :mod:`repro.deepmd` (Deep
  Potential inference on a frozen model), :mod:`repro.parallel`
  (decomposition, ghost exchange, the ranked engine), :mod:`repro.serving`,
* trains, offline: :mod:`repro.training` (dataset generator, trainer on the
  :mod:`repro.deepmd` kernels with analytic gradients), which hands
  inference a new frozen model,
* pins: :mod:`repro.reference` — the goldens production is checked against,
  including the mini autodiff framework (the §III-B.1 baseline and the
  gradient golden); production never imports it,
* prices: :mod:`repro.perfmodel` (the Fugaku spec and its pricing
  functions; communication schemes, load balance and kernels as per-step
  costs, ns/day), :mod:`repro.core` (optimization configuration, the
  modelled step, the experiment harness) — these import the executing layer, never the reverse,
* tooling: :mod:`repro.analysis` (reprolint).

Most users should start from :class:`repro.core.config.OptimizationConfig` and
:func:`repro.core.step_report`; see ``examples/quickstart.py`` and
``examples/strong_scaling_copper.py``.
"""

from .version import __version__

__all__ = ["__version__"]
