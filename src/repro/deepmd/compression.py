"""Model compression: tabulated embedding networks.

Guo et al. (PPoPP'22) — the baseline this paper builds on — compress the
embedding network by tabulating G(s) on a fine grid and replacing the MLP
evaluation with piecewise polynomial interpolation, which removes most of the
embedding-net GEMMs.  :class:`TabulatedEmbeddingSet` reproduces that scheme
with cubic Hermite interpolation: values and derivatives are stored per grid
node, so both G(s) and dG/ds (needed by the force computation) are obtained
directly from the table.

Node derivatives come from the **analytic** input-Jacobian of the exported
net (:meth:`FastMLP.backward_input`, one vector-Jacobian product per output
component), not from finite differences — the table is exact at the nodes and
never evaluates the net outside the tabulated range.

:meth:`TabulatedEmbeddingSet.evaluate_batched` is the one evaluator: all
tables are stacked into one packed node array so every neighbour of a whole
batch is interpolated with a single fused gather per Hermite node and one
vectorized kernel, whatever mixture of neighbour types the rows hold.  It is
pinned at 1e-12 (``tests/test_deepmd_compression.py``) to the per-key golden
:func:`repro.reference.deepmd.tabulated_evaluate`, which reads the same
:attr:`TabulatedEmbeddingSet.tables` one ``(centre, neighbour)`` key at a time.

Inputs outside ``[0, s_max]`` clamp to the end nodes — the value is
constant-extrapolated there, so **dG/ds is zero** outside the range (a
non-zero end-node derivative would make forces inconsistent with the energy
for close approaches).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gemm import _dtype_name
from .networks import FastMLP

#: FLOP counts of the batched Hermite kernel, reconciled with
#: :class:`repro.perfmodel.kernels.KernelCostModel` (see the cross-module
#: assertion in ``tests/test_perfmodel_core.py``).  Per (neighbour, output
#: component): the 4-term value combination (4 mul + 3 add; node derivatives
#: are pre-scaled by the grid step at build time, so no per-evaluation
#: scaling remains).
HERMITE_VALUE_FLOPS_PER_COMPONENT = 7.0
#: Per neighbour, shared across components: t, t^2, t^3 and the four value
#: basis polynomials h00/h10/h01/h11.
HERMITE_VALUE_FLOPS_PER_NEIGHBOR = 17.0
#: Per (neighbour, component): the 4-term derivative combination.
HERMITE_DERIVATIVE_FLOPS_PER_COMPONENT = 7.0
#: Per neighbour: the four derivative basis polynomials dh00..dh11.
HERMITE_DERIVATIVE_FLOPS_PER_NEIGHBOR = 17.0
#: Per (neighbour, component): the dE/ds contraction of dG/ds with dE/dG.
EMBEDDING_GRAD_DOT_FLOPS_PER_COMPONENT = 2.0

#: Rows per cache block of the batched kernel: the gathered (rows, 4, M)
#: operand block and both output slices stay resident between the gather and
#: the two contractions (measured ~3x over whole-array passes at 90k rows).
HERMITE_CHUNK_ROWS = 1024


@dataclass
class _Table:
    grid: np.ndarray  # (K,)
    values: np.ndarray  # (K, M)
    derivatives: np.ndarray  # (K, M)

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass
class InterpolationErrors:
    """Max |table - net| and max |dG/ds table - analytic| over random samples."""

    value: float
    derivative: float


def analytic_input_jacobian(net: FastMLP, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward values and the full dG/ds Jacobian of a scalar-input net.

    The input dimension is 1, so the Jacobian of the ``(K,)`` inputs is a
    ``(K, M)`` array obtained with one :meth:`FastMLP.backward_input`
    vector-Jacobian product per output component, all reading one forward
    tape local to this call (``net`` itself is left untouched).  Never
    evaluates the net outside ``s`` — unlike a centered difference at the
    first grid node.
    """
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    tape: list = []
    values = net.forward(s[:, None], cache=tape)
    m = values.shape[1]
    jacobian = np.empty_like(values)
    seed = np.zeros((len(s), m))
    for component in range(m):
        seed[:, component] = 1.0
        jacobian[:, component] = net.backward_input(seed, cache=tape)[:, 0]
        seed[:, component] = 0.0
    return values, jacobian


class TabulatedEmbeddingSet:
    """Tabulated (compressed) versions of every embedding net.

    Parameters
    ----------
    fast_embeddings:
        exported :class:`FastMLP` embedding nets keyed by (centre, neighbour)
        type pair.
    s_max:
        upper end of the tabulated range of the switching function; s(r) is
        bounded by 1/r_cs so a safe default can be derived from the model
        cutoffs.
    n_points:
        number of grid nodes (the original implementation uses a stride of
        1e-2 split into a coarse and a fine table; a single uniform grid is
        enough to reproduce both the numerics and the cost structure).
    """

    def __init__(
        self,
        fast_embeddings: dict[tuple[int, int], FastMLP],
        s_max: float,
        n_points: int = 1024,
    ) -> None:
        if s_max <= 0:
            raise ValueError("s_max must be positive")
        if n_points < 4:
            raise ValueError("need at least 4 grid points")
        if not fast_embeddings:
            raise ValueError("need at least one embedding net to tabulate")
        self.s_max = float(s_max)
        self.n_points = int(n_points)
        self.tables: dict[tuple[int, int], _Table] = {}
        grid = np.linspace(0.0, self.s_max, self.n_points)
        for key, net in fast_embeddings.items():
            values, derivatives = analytic_input_jacobian(net, grid)
            self.tables[key] = _Table(grid=grid, values=values, derivatives=derivatives)
        self._build_stacked()

    # -- stacked multi-table layout (the production path) -----------------------
    def _build_stacked(self) -> None:
        """Stack every table into one packed node array for batched gathers.

        Node ``k`` of table slot ``p`` is the ``2M`` row ``[values_k |
        h * derivatives_k]`` at flat index ``p * n_points + k``, so
        interpolating a neighbour costs one fused gather per Hermite node
        regardless of which (centre, neighbour) table it reads.  The node
        derivatives are pre-scaled by the grid step (the ``d * h`` terms of
        the Hermite form), which drops two whole-array multiplies from every
        evaluation without changing a bit of the result.
        """
        keys = sorted(self.tables)
        self._slot_of = {key: slot for slot, key in enumerate(keys)}
        n_types = 1 + max(max(ti, tj) for ti, tj in keys)
        self._slot_grid = np.full((n_types, n_types), -1, dtype=np.int64)
        for (ti, tj), slot in self._slot_of.items():
            self._slot_grid[ti, tj] = slot
        m = self.width
        grid = self.tables[keys[0]].grid
        h = float(grid[1] - grid[0])
        packed = np.empty((len(keys), self.n_points, 2 * m))
        for key, slot in self._slot_of.items():
            packed[slot, :, :m] = self.tables[key].values
            packed[slot, :, m:] = self.tables[key].derivatives * h
        self._packed = packed.reshape(len(keys) * self.n_points, 2 * m)
        # read-only overlapping window view: row i is the (2, 2M) node pair
        # [i, i+1], so one fancy-index gathers all four Hermite operands
        # [y0 | h*d0 | y1 | h*d1] of every element at once
        self._node_windows = self._windows_over(self._packed)
        self._grid = grid
        self._h = h
        #: reduced-precision copies of the packed node array (plus their
        #: window views), built once per dtype by :meth:`ensure_packed` —
        #: the mixed-precision production path reads fp32 nodes, halving the
        #: gather bandwidth of every interpolation
        self._packed_lp: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}
        #: :meth:`evaluate_batched` invocations per compute dtype — the
        #: regression probe that proves the table path honours the precision
        #: policy instead of silently running fp64
        self.eval_dtype_counts: dict[str, int] = {}
        #: how many reduced-precision packed-node copies were actually built —
        #: the cross-request cache-reuse probe of the serving engine: one
        #: build per dtype per table, however many batches read it
        self.packed_cache_builds = 0

    @staticmethod
    def _windows_over(packed: np.ndarray) -> np.ndarray:
        stride_row, stride_col = packed.strides
        return np.lib.stride_tricks.as_strided(
            packed,
            shape=(packed.shape[0] - 1, 2, packed.shape[1]),
            strides=(stride_row, stride_row, stride_col),
            writeable=False,
        )

    # reprolint: cold-path packed low-precision copies are built once per dtype and cached; steady-state evaluation gathers from the cache
    def ensure_packed(self, dtype) -> np.ndarray:
        """The packed node array at ``dtype``, cast once and cached.

        float64 returns the master table.  Lower precisions round the node
        values/derivatives a single time at build; every subsequent batched
        evaluation gathers directly from the reduced copy (no per-call
        downcast, half the memory traffic for fp32).
        """
        dt = np.dtype(dtype)
        if dt == np.dtype(np.float64):
            return self._packed
        entry = self._packed_lp.get(dt)
        if entry is None:
            packed = self._packed.astype(dt)
            entry = (packed, self._windows_over(packed))
            self._packed_lp[dt] = entry
            self.packed_cache_builds += 1
        return entry[0]

    def packed_dtypes(self) -> tuple[str, ...]:
        """Dtypes for which a packed node array exists (probe for tests)."""
        return ("fp64",) + tuple(sorted(_dtype_name(dt) for dt in self._packed_lp))

    @property
    def width(self) -> int:
        return next(iter(self.tables.values())).width

    def slot_index(self, center_type: int, neighbor_types: np.ndarray) -> np.ndarray:
        """Stacked-table slot of every neighbour entry for one centre type.

        Padding entries (type < 0) map to slot 0 — callers mask their
        contributions out, exactly as the per-type loop skipped them.
        """
        row = self._slot_grid[int(center_type)]
        neighbor_types = np.asarray(neighbor_types)
        valid = neighbor_types >= 0
        if np.any(valid & (neighbor_types >= len(row))):
            raise KeyError(f"no table for centre type {center_type} and some neighbour types")
        slots = row[np.where(valid, neighbor_types, 0)]
        if np.any((slots < 0) & valid):
            raise KeyError(
                f"no table for centre type {center_type} and some neighbour types"
            )
        return np.where(valid, slots, 0)

    # reprolint: hot-path
    def evaluate_batched(
        self,
        slots: np.ndarray,
        s: np.ndarray,
        out_values: np.ndarray | None = None,
        out_derivatives: np.ndarray | None = None,
        dtype=np.float64,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Interpolated ``(G, dG/ds)`` where element ``i`` reads table ``slots[i]``.

        ``slots`` and ``s`` share any leading shape; the result appends the
        table width M.  ``out_values`` / ``out_derivatives`` are optional
        preallocated buffers of that output shape (the workspace path of the
        model); outputs are written in place and returned.  Outside
        ``[0, s_max]`` the value clamps to the end node and the derivative is
        zero.

        The slot indices are free-form: nothing here assumes the rows belong
        to one system, so the serving batch path
        (:meth:`repro.deepmd.model.DeepPotential.evaluate_many`) passes the
        concatenated slot/s arrays of a whole multi-system batch and every
        neighbour of every packed system interpolates in the same fused
        gather + Hermite kernel.

        ``dtype`` is the compute precision of the interpolation
        (:attr:`PrecisionPolicy.compute_dtype` on the production path):
        float64 reads the master table and is the golden-pinned reference;
        lower precisions gather from the once-cast reduced node array of
        :meth:`ensure_packed` and run the basis arithmetic and contractions
        natively at that precision.  The node *placement* (grid index and the
        out-of-range clamp) is always resolved in float64 so every precision
        interpolates the same segment.

        One fancy-index over the window view gathers all four Hermite
        operands of a row block; the value/derivative combinations run as two
        ``einsum`` contractions against the (row, 4) basis weights — no
        per-term temporaries, and the k-order of the contraction matches the
        golden 4-term sum exactly.  Rows are processed in
        :data:`HERMITE_CHUNK_ROWS` blocks so the gathered operands stay
        cache-resident between the gather and the contractions.
        """
        dt = np.dtype(dtype)
        name = _dtype_name(dt)
        self.eval_dtype_counts[name] = self.eval_dtype_counts.get(name, 0) + 1
        if dt == np.dtype(np.float64):
            windows = self._node_windows
        else:
            self.ensure_packed(dt)
            windows = self._packed_lp[dt][1]
        s_arr = np.asarray(s, dtype=np.float64)
        flat_s = s_arr.reshape(-1)
        flat_slots = np.asarray(slots, dtype=np.int64).reshape(-1)
        grid = self._grid
        h = self._h if dt == np.dtype(np.float64) else dt.type(self._h)
        m = self.width
        n_flat = len(flat_s)
        clamped = np.clip(flat_s, grid[0], grid[-1])
        idx = np.minimum((clamped - grid[0]) / self._h, len(grid) - 2).astype(int)  # reprolint: allow[alloc] fp64 node placement must produce a fresh int index array
        t_all = ((clamped - grid[idx]) / self._h)[:, None]
        if dt != np.dtype(np.float64):
            t_all = t_all.astype(dt)  # reprolint: allow[alloc] one (n,1) downcast per call at the precision boundary
        base = flat_slots * len(grid) + idx

        if (out_values is None) != (out_derivatives is None):
            raise ValueError("out_values and out_derivatives must be provided together")
        shape = (*s_arr.shape, m)
        if out_values is None:
            values = np.empty((n_flat, m), dtype=dt)  # reprolint: allow[alloc] out-less reference branch; the workspace path passes buffers
            derivs = np.empty((n_flat, m), dtype=dt)  # reprolint: allow[alloc] out-less reference branch; the workspace path passes buffers
        else:
            if out_values.dtype != dt or out_derivatives.dtype != dt:
                raise ValueError(f"out buffers must match the compute dtype {dt}")
            values = out_values.reshape(n_flat, m)
            derivs = out_derivatives.reshape(n_flat, m)
            if not (
                np.may_share_memory(values, out_values)
                and np.may_share_memory(derivs, out_derivatives)
            ):
                # a reshape that copies would silently drop every write
                raise ValueError("out buffers must reshape to views (C-contiguous)")

        for lo in range(0, n_flat, HERMITE_CHUNK_ROWS):
            hi = min(lo + HERMITE_CHUNK_ROWS, n_flat)
            # block gather: (rows, 4, M) operands [y0, h*d0, y1, h*d1]
            nodes = windows[base[lo:hi]].reshape(hi - lo, 4, m)
            t = t_all[lo:hi]
            t2 = t * t
            t3 = t2 * t
            value_weights = np.concatenate(  # reprolint: allow[alloc] per-chunk (rows,4) basis block, cache-resident by design
                [
                    2.0 * t3 - 3.0 * t2 + 1.0,  # h00 -> y0
                    t3 - 2.0 * t2 + t,  # h10 -> h*d0
                    -2.0 * t3 + 3.0 * t2,  # h01 -> y1
                    t3 - t2,  # h11 -> h*d1
                ],
                axis=1,
            )
            deriv_weights = np.concatenate(  # reprolint: allow[alloc] per-chunk (rows,4) basis block, cache-resident by design
                [
                    (6.0 * t2 - 6.0 * t) / h,
                    (3.0 * t2 - 4.0 * t + 1.0) / h,
                    (-6.0 * t2 + 6.0 * t) / h,
                    (3.0 * t2 - 2.0 * t) / h,
                ],
                axis=1,
            )
            np.einsum("nkm,nk->nm", nodes, value_weights, out=values[lo:hi])
            np.einsum("nkm,nk->nm", nodes, deriv_weights, out=derivs[lo:hi])

        out_of_range = (flat_s < grid[0]) | (flat_s > grid[-1])
        if np.any(out_of_range):
            derivs[out_of_range] = 0.0

        if out_values is None:
            return values.reshape(shape), derivs.reshape(shape)
        return out_values, out_derivatives

    # -- compression-quality metrics ---------------------------------------------
    def interpolation_errors(
        self, key: tuple[int, int], net: FastMLP, n_samples: int = 512, rng=None
    ) -> InterpolationErrors:
        """Max value and derivative error vs the exact net over random samples.

        The derivative reference is the analytic input-Jacobian of the net,
        so the metric covers the quantity the force computation consumes, not
        just the energy side.
        """
        rng = np.random.default_rng(rng)
        s = rng.uniform(0.0, self.s_max, size=n_samples)
        exact, exact_deriv = analytic_input_jacobian(net, s)
        approx, approx_deriv = self.evaluate_batched(np.full(n_samples, self._slot_of[key]), s)
        return InterpolationErrors(
            value=float(np.max(np.abs(exact - approx))),
            derivative=float(np.max(np.abs(exact_deriv - approx_deriv))),
        )
