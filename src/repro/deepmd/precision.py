"""Mixed-precision policies (Table II of the paper).

Three modes are evaluated in the paper:

* ``Double``   — everything in fp64 (the baseline),
* ``MIX-fp32`` — embedding-net and fitting-net calculations in fp32, the rest
  (environment matrix, descriptor contraction, accumulation) in fp64,
* ``MIX-fp16`` — additionally the GEMM of the *first* fitting-net layer in
  fp16.

A :class:`PrecisionPolicy` maps those choices onto per-layer compute dtypes
for the fast kernels; the accuracy experiments re-evaluate the same trained
model under each policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class PrecisionPolicy:
    """Per-component compute precisions.

    Attributes
    ----------
    name:
        policy identifier (``double``, ``mix-fp32``, ``mix-fp16``).
    embedding_dtype:
        precision of the embedding-net layers.
    fitting_dtype:
        precision of fitting-net layers after the first.
    fitting_first_layer_dtype:
        precision of the first fitting-net GEMM (fp16 in MIX-fp16).
    """

    name: str
    embedding_dtype: type = np.float64
    fitting_dtype: type = np.float64
    fitting_first_layer_dtype: type | None = None

    def embedding_dtypes(self, n_layers: int) -> list:
        return [self.embedding_dtype] * n_layers

    def fitting_dtypes(self, n_layers: int) -> list:
        first = self.fitting_first_layer_dtype or self.fitting_dtype
        if n_layers == 0:
            return []
        return [first] + [self.fitting_dtype] * (n_layers - 1)

    @property
    def is_double(self) -> bool:
        """True when every component computes in float64 (the golden path)."""
        return (
            np.dtype(self.embedding_dtype) == np.dtype(np.float64)
            and np.dtype(self.fitting_dtype) == np.dtype(np.float64)
            and self.fitting_first_layer_dtype is None
        )

    @cached_property
    def compute_dtype(self) -> type:
        """Dtype of the embedding/descriptor pipeline of the fast kernels.

        float64 for the Double policy; the embedding dtype (fp32 for both MIX
        policies) otherwise.  The environment matrix is always *built* in
        float64 and the per-atom energy/force/virial reductions always
        *accumulate* in float64 — this dtype governs the compute in between
        (table interpolation / embedding nets, descriptor contraction,
        fitting nets, and their backward chain).  A policy is frozen, so the
        answer is worked out on first use and kept.
        """
        return np.float64 if self.is_double else self.embedding_dtype


DOUBLE = PrecisionPolicy("double")

MIX_FP32 = PrecisionPolicy(
    "mix-fp32",
    embedding_dtype=np.float32,
    fitting_dtype=np.float32,
)

MIX_FP16 = PrecisionPolicy(
    "mix-fp16",
    embedding_dtype=np.float32,
    fitting_dtype=np.float32,
    fitting_first_layer_dtype=np.float16,
)

POLICIES = {p.name: p for p in (DOUBLE, MIX_FP32, MIX_FP16)}


def get_policy(name_or_policy) -> PrecisionPolicy:
    """Resolve a policy from its name or pass an existing policy through."""
    if isinstance(name_or_policy, PrecisionPolicy):
        return name_or_policy
    try:
        return POLICIES[str(name_or_policy)]
    except KeyError as exc:
        raise KeyError(
            f"unknown precision policy {name_or_policy!r}; available: {sorted(POLICIES)}"
        ) from exc
