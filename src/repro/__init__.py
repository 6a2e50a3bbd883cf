"""repro — reproduction of "Scaling Molecular Dynamics with ab initio Accuracy
to 149 Nanoseconds per Day" (SC'24).

The package is organised in layers (see the README's "Layout" table):

* substrates: :mod:`repro.nnframework` (mini NN framework), :mod:`repro.md`
  (MD engine), :mod:`repro.deepmd` (Deep Potential model),
* machine: :mod:`repro.hardware` (Fugaku model), :mod:`repro.parallel`
  (decomposition + communication schemes), :mod:`repro.perfmodel`
  (per-step cost model, ns/day),
* top: :mod:`repro.core` (optimization configuration + engine + experiment
  harness) and :mod:`repro.analysis`.

Most users should start from :class:`repro.core.OptimizationConfig` and
:class:`repro.core.DeepMDEngine`; see ``examples/quickstart.py``.
"""

from .version import __version__

__all__ = ["__version__"]
